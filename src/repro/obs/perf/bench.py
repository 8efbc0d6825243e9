"""The unified benchmark artifact layer: ``hermes-bench/1``.

Before this module the repo's 19 benchmark suites printed tables and two
of them wrote ad-hoc JSON files; nothing recorded *when* a number was
measured, *on what machine*, or *at which commit* — so there was no perf
trajectory, only snapshots.  Every suite now funnels through one writer:

* :func:`bench_artifact` builds the versioned document — format tag,
  suite name, a **machine fingerprint** (CPU count, usable cores,
  Python, platform, git commit), a flat numeric ``headline`` (the
  comparison surface), and a free-form suite ``payload``;
* :func:`write_bench_artifact` writes ``BENCH_<suite>.json``, appends a
  trajectory point to ``results/perf_history.jsonl`` (one JSON line per
  bench run: the curve the ROADMAP's scaling item needs), and
  regenerates ``results/INDEX.md``;
* :func:`compare` diffs two artifacts' headlines under per-direction
  regression thresholds — ``python -m repro.obs perf bench-compare``
  exits nonzero when a metric regressed, which is what lets CI gate.

Headline direction is inferred from the metric name: names carrying
``speedup`` / ``rate`` / ``per_s`` / ``throughput`` / ``ops`` count as
higher-is-better; everything else (seconds, ms, MiB, counts of work)
as lower-is-better.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .wallclock import timestamp, unix_time

#: Versioned artifact format tag (the ``hermes-trace/1`` convention).
BENCH_FORMAT = "hermes-bench/1"

#: Default regression threshold: worse by >20% fails the comparison.
DEFAULT_THRESHOLD = 0.2

#: Headline-name fragments marking a metric as higher-is-better.
_HIGHER_IS_BETTER = ("speedup", "rate", "per_s", "throughput", "ops")


def metric_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` — which way ``name`` should move."""
    lowered = name.lower()
    if any(fragment in lowered for fragment in _HIGHER_IS_BETTER):
        return "higher"
    return "lower"


def git_commit() -> str:
    """The repo's short commit hash, or ``"unknown"`` outside a checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if result.returncode != 0:
        return "unknown"
    return result.stdout.strip() or "unknown"


#: Fingerprint fields that, when two artifacts disagree on them, make a
#: wall-clock comparison a comparison of machines as much as of code.
_COMPARABILITY_FIELDS = ("cpu_count", "usable_cores", "python")


def machine_fingerprint() -> Dict[str, object]:
    """Where a measurement was taken: the context a wall-clock number
    is meaningless without.

    ``usable_cores`` is the CPU affinity set of this process (None where
    the platform cannot tell), which a container or a CPU quota can keep
    well below ``cpu_count``.
    """
    usable = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None
    )
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def bench_artifact(
    suite: str,
    headline: Dict[str, float],
    payload: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Build one ``hermes-bench/1`` document (pure; writes nothing).

    Args:
        suite: short suite name (``fig15``, ``engine``, ``verifier``...).
        headline: flat name→number dict — the comparison surface.
        payload: suite-specific detail (tables, sub-timings), free-form.
        meta: extra context merged next to the fingerprint.

    Raises:
        ValueError: on an empty suite name or a non-numeric headline.
    """
    if not suite:
        raise ValueError("suite name must be non-empty")
    for name, value in headline.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"headline values must be numbers: {name}={value!r}"
            )
    document = {
        "format": BENCH_FORMAT,
        "suite": suite,
        "date": timestamp(),
        "unix_time": unix_time(),
        "fingerprint": machine_fingerprint(),
        "headline": dict(headline),
    }
    if meta:
        document["meta"] = dict(meta)
    if payload is not None:
        document["payload"] = payload
    return document


def load_artifact(path: str) -> dict:
    """Load and validate a ``hermes-bench/1`` artifact.

    Raises:
        ValueError: on a missing/foreign format tag or a missing headline.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    found = document.get("format") if isinstance(document, dict) else None
    if found != BENCH_FORMAT:
        raise ValueError(
            f"{path}: not a {BENCH_FORMAT} artifact (format tag: {found!r})"
        )
    if not isinstance(document.get("headline"), dict):
        raise ValueError(f"{path}: artifact carries no headline dict")
    return document


# ---------------------------------------------------------------------------
# Writing: artifact + history + index, one call
# ---------------------------------------------------------------------------

def default_results_dir() -> str:
    """``$HERMES_BENCH_DIR`` or the repo's ``results/`` directory."""
    override = os.environ.get("HERMES_BENCH_DIR")
    if override:
        return override
    return "results"


def write_bench_artifact(
    suite: str,
    headline: Dict[str, float],
    payload: Optional[dict] = None,
    meta: Optional[dict] = None,
    results_dir: Optional[str] = None,
) -> str:
    """Write one suite's artifact; append history; refresh the index.

    All three land in ``results_dir`` (default: :func:`default_results_dir`,
    so ``$HERMES_BENCH_DIR`` moves them together).  Returns the artifact
    path.
    """
    directory = results_dir if results_dir is not None else default_results_dir()
    os.makedirs(directory, exist_ok=True)
    document = bench_artifact(suite, headline, payload=payload, meta=meta)
    path = os.path.join(directory, f"BENCH_{suite}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    append_history(document, directory)
    write_index(directory)
    return path


def append_history(document: dict, results_dir: str) -> str:
    """Append one trajectory point for ``document`` to the history file.

    The point is deliberately small — suite, date, commit, headline — so
    the JSONL stays greppable and plottable after thousands of runs.
    """
    path = os.path.join(results_dir, "perf_history.jsonl")
    point = {
        "suite": document["suite"],
        "date": document["date"],
        "unix_time": document["unix_time"],
        "commit": document["fingerprint"]["commit"],
        "cpu_count": document["fingerprint"]["cpu_count"],
        "usable_cores": document["fingerprint"].get("usable_cores"),
        "python": document["fingerprint"]["python"],
        "headline": document["headline"],
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(point, sort_keys=True) + "\n")
    return path


def read_history(results_dir: Optional[str] = None) -> List[dict]:
    """Parse ``perf_history.jsonl`` (empty list when absent)."""
    directory = results_dir if results_dir is not None else default_results_dir()
    path = os.path.join(directory, "perf_history.jsonl")
    if not os.path.exists(path):
        return []
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                points.append(json.loads(line))
    return points


def _fmt_number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def write_index(results_dir: Optional[str] = None) -> str:
    """Regenerate ``INDEX.md`` from the artifacts present in the dir.

    One line per artifact: suite, measurement date, commit, and the
    headline numbers — the generated replacement for the hand-pasted
    ``artifacts.txt`` grab-bag.
    """
    directory = results_dir if results_dir is not None else default_results_dir()
    entries = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            document = load_artifact(os.path.join(directory, name))
        except (ValueError, json.JSONDecodeError, OSError):
            continue  # legacy or foreign JSON: listed nowhere
        headline = ", ".join(
            f"{key}={_fmt_number(value)}"
            for key, value in sorted(document["headline"].items())
        )
        entries.append(
            (
                document["suite"],
                f"| {document['suite']} | {document['date']} | "
                f"{document['fingerprint']['commit']} | `{name}` | "
                f"{headline} |"
            )
        )
    history = read_history(directory)
    lines = [
        "# Benchmark artifacts",
        "",
        "Generated by `repro.obs.perf.bench.write_index` — do not edit by",
        "hand; every benchmark run through the shared helper refreshes it.",
        "Each artifact is a `hermes-bench/1` JSON document; the full",
        f"trajectory ({len(history)} points) lives in `perf_history.jsonl`.",
        "",
        "| suite | date | commit | artifact | headline |",
        "| --- | --- | --- | --- | --- |",
    ]
    lines.extend(line for _suite, line in sorted(entries))
    path = os.path.join(directory, "INDEX.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Comparison: the regression gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadlineDelta:
    """One headline metric compared across two artifacts.

    ``ratio`` is ``b / a`` (guarded against zero); ``regressed`` is True
    when the metric moved the wrong way by more than the threshold.
    """

    metric: str
    direction: str
    a: float
    b: float
    ratio: float
    regressed: bool

    def __str__(self) -> str:
        arrow = {"lower": "↓ better", "higher": "↑ better"}[self.direction]
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.metric:<28} {self.a:>12.6g} -> {self.b:>12.6g} "
            f"({self.ratio:.3f}x, {arrow}): {verdict}"
        )


def compare(
    artifact_a: dict,
    artifact_b: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[HeadlineDelta], List[str]]:
    """Compare two artifacts' shared headline metrics.

    Returns ``(deltas, notes)`` — notes flag metrics present on only one
    side, suite mismatches, and fingerprints that disagree on core counts
    or Python version.  A metric regresses when it is worse than
    ``1 + threshold`` times the baseline (lower-is-better) or below
    ``1 / (1 + threshold)`` of it (higher-is-better).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative: {threshold}")
    notes: List[str] = []
    suite_a = artifact_a.get("suite")
    suite_b = artifact_b.get("suite")
    if suite_a != suite_b:
        notes.append(
            f"comparing different suites: {suite_a!r} vs {suite_b!r}"
        )
    print_a = artifact_a.get("fingerprint") or {}
    print_b = artifact_b.get("fingerprint") or {}
    for name in _COMPARABILITY_FIELDS:
        if print_a.get(name) != print_b.get(name):
            notes.append(
                f"machines differ in {name}: {print_a.get(name)!r} vs "
                f"{print_b.get(name)!r}"
            )
    head_a: Dict[str, float] = artifact_a["headline"]
    head_b: Dict[str, float] = artifact_b["headline"]
    for missing in sorted(set(head_a) ^ set(head_b)):
        side = "baseline" if missing in head_a else "candidate"
        notes.append(f"metric {missing!r} present only in the {side}")
    deltas: List[HeadlineDelta] = []
    for metric in sorted(set(head_a) & set(head_b)):
        a, b = float(head_a[metric]), float(head_b[metric])
        direction = metric_direction(metric)
        ratio = b / a if a != 0 else (1.0 if b == 0 else float("inf"))
        if direction == "lower":
            regressed = ratio > 1.0 + threshold
        else:
            regressed = ratio < 1.0 / (1.0 + threshold)
        deltas.append(
            HeadlineDelta(
                metric=metric,
                direction=direction,
                a=a,
                b=b,
                ratio=ratio,
                regressed=regressed,
            )
        )
    return deltas, notes
