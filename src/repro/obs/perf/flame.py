"""Collapsed-stack ("folded") flamegraph output from traces and profiles.

One line per unique stack, ``frame;frame;frame weight`` — the format
Brendan Gregg's ``flamegraph.pl`` and speedscope both ingest directly,
so the repo needs no visualization dependency of its own.

Two sources fold into the same format:

* a ``hermes-trace/1`` span stream (**sim time**): each finished span
  contributes its *self* time — duration minus the time covered by its
  child spans — under the stack of span names from the root down.  A
  flowmod → agent.batch → agent.action nest renders as three frames.
* a :class:`~repro.obs.perf.profiler.ProfileReport` (**wall time**):
  each stack of layer names contributes its self time under its path
  from the root down, ``loop;agent;hermes;tcam.insert`` (the report's
  own :meth:`collapsed`).

Weights are integer microseconds — collapsed-stack consumers expect
integer sample counts, and a microsecond is fine-grained enough that
rounding never hides a stack that mattered.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def _span_paths(spans: Sequence[dict]) -> Dict[int, str]:
    """Map span id → semicolon-joined name path from the root down.

    A span whose parent never finished (an orphan: parent id missing
    from the record stream) roots its own stack — the trace is still
    renderable, just shallower than the live nesting was.
    """
    by_id = {span["id"]: span for span in spans}
    paths: Dict[int, str] = {}

    def path_of(span_id: int) -> str:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        span = by_id[span_id]
        parent_id = span.get("parent", 0)
        if parent_id and parent_id in by_id:
            path = f"{path_of(parent_id)};{span['name']}"
        else:
            path = span["name"]
        paths[span_id] = path
        return path

    for span in spans:
        path_of(span["id"])
    return paths


def trace_collapsed(records: Sequence[dict]) -> List[str]:
    """Fold a ``hermes-trace/1`` record stream into collapsed stacks.

    Only span records participate; identical stacks merge (weights sum);
    output is sorted by stack for deterministic artifacts.  Self time is
    clamped at zero — children finishing after their parent (error-path
    out-of-order finishes) cannot produce negative weights.
    """
    spans = [record for record in records if record.get("type") == "span"]
    child_time: Dict[int, float] = {}
    for span in spans:
        parent_id = span.get("parent", 0)
        if parent_id:
            child_time[parent_id] = child_time.get(parent_id, 0.0) + (
                span["end"] - span["start"]
            )
    paths = _span_paths(spans)
    weights: Dict[str, int] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        self_time = max(0.0, duration - child_time.get(span["id"], 0.0))
        micros = int(round(self_time * 1e6))
        if micros <= 0:
            continue
        stack = paths[span["id"]]
        weights[stack] = weights.get(stack, 0) + micros
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_collapsed(lines: Sequence[str], path: str) -> str:
    """Write collapsed-stack lines to ``path`` (trailing newline included)."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return path
