"""Per-stage FlowMod breakdowns, trace summaries, and diffs.

Each control action's controller-observed latency splits into the four
stages of the control path.  Every stage is computed once, in the
component where it happens, and carried on what that component returns:

* **gatekeeper** — Hermes's admission decision plus Algorithm 1's overlap
  scan: ``FlowModResult.gatekeeper``, the ``agent.action`` span's
  ``gatekeeper`` attribute (zero for diverted inserts and for non-Hermes
  schemes);
* **queue** — time the action waited for the switch CPU:
  ``CompletedAction.queue_delay``, the span's ``queue_delay``;
* **tcam** — installer execution minus the gatekeeper share, the physical
  TCAM write/shift cost (``exec_latency`` minus ``gatekeeper``);
* **channel** — everything the network added on top: propagation,
  timeouts, backoff, and redeliveries: ``SendOutcome.channel_delay``, the
  enclosing ``flowmod`` span's ``channel`` attribute.

:func:`flowmod_breakdowns` reads those fields from a trace's spans and
:func:`run_breakdowns` from a run's channel histories, with the same
result.  Stages are clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The per-FlowMod stages, in presentation order.
STAGES: Tuple[str, ...] = ("gatekeeper", "queue", "tcam", "channel")

_PERCENTILES: Tuple[int, ...] = (50, 90, 99)


@dataclass
class FlowModBreakdown:
    """One control action's per-stage latency split.

    ``span_id`` is the ``agent.action`` span's id for a breakdown read
    from a trace, None for one read from a run.
    """

    span_id: Optional[int]
    switch: str
    command: str
    start: float
    end: float
    gatekeeper: float
    queue: float
    tcam: float
    channel: float
    attempts: int = 1
    delivered: bool = True
    shifts: Optional[int] = None
    xid: Optional[int] = None

    @property
    def total(self) -> float:
        """Sum of the four stages — the attributed response time."""
        return self.gatekeeper + self.queue + self.tcam + self.channel

    def stage(self, name: str) -> float:
        return getattr(self, name)


@dataclass
class TraceSummary:
    """Everything the CLI renders about one trace."""

    header: dict
    breakdowns: List[FlowModBreakdown]
    samples: Dict[str, List[Tuple[float, float]]]
    record_counts: Dict[str, int]
    event_counts: Dict[str, int] = field(default_factory=dict)
    span_range: Tuple[float, float] = (0.0, 0.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Reading breakdowns
# ---------------------------------------------------------------------------

#: The one order both producers give: by start, end, then switch.  The
#: sort is stable and both producers list one switch's actions in the
#: order they ran, so ties come out the same from a trace and a run.
_ORDER = attrgetter("start", "end", "switch")


def _breakdown(
    span_id, switch, command, start, end, gatekeeper, queue_delay,
    exec_latency, channel, attempts, delivered, shifts, xid,
) -> FlowModBreakdown:
    """A breakdown with every stage clamped at zero."""
    gatekeeper = max(0.0, gatekeeper)
    return FlowModBreakdown(
        span_id, switch, command, start, end, gatekeeper,
        max(0.0, queue_delay), max(0.0, exec_latency - gatekeeper),
        max(0.0, channel), attempts, delivered, shifts, xid,
    )


def flowmod_breakdowns(records: Sequence[dict]) -> List[FlowModBreakdown]:
    """One breakdown per ``agent.action`` span of a trace.

    An action span carries its own ``gatekeeper``, ``queue_delay`` and
    ``exec_latency``; its ``flowmod`` grandparent (action, ``agent.batch``,
    ``flowmod``) carries ``channel``, ``attempts`` and ``delivered``.  An
    action with no channel span (a direct ``SwitchAgent.submit``, as in
    the replay harnesses) gets a zero channel stage, one attempt, and
    delivered.  Undelivered sends hold no action span and are left out:
    they installed nothing.  ``shifts`` are measured per batch; a batch
    of one hands them to its only action.
    """
    by_id = {record["id"]: record for record in records if record["type"] == "span"}
    breakdowns: List[FlowModBreakdown] = []
    for span in by_id.values():
        if span["name"] != "agent.action":
            continue
        attrs = span["attrs"]
        shifts = None
        outer: dict = {}
        batch = by_id.get(span["parent"])
        if batch is not None and batch["name"] == "agent.batch":
            if batch["attrs"].get("size") == 1:
                shifts = batch["attrs"].get("shifts")
            flowmod = by_id.get(batch["parent"])
            if flowmod is not None and flowmod["name"] == "flowmod":
                outer = flowmod["attrs"]
        breakdowns.append(_breakdown(
            span["id"], str(attrs.get("switch", "?")),
            str(attrs.get("command", "?")), span["start"], span["end"],
            attrs.get("gatekeeper", 0.0), attrs.get("queue_delay", 0.0),
            attrs.get("exec_latency", span["end"] - span["start"]),
            outer.get("channel", 0.0), int(outer.get("attempts", 1)),
            bool(outer.get("delivered", True)), shifts, attrs.get("xid"),
        ))
    breakdowns.sort(key=_ORDER)
    return breakdowns


def run_breakdowns(channels: Iterable) -> List[FlowModBreakdown]:
    """The breakdowns of a run, traced or not, from its channel histories.

    ``channels`` are :class:`~repro.switchsim.channel.Channel` objects
    (``simulation.controller.channels.values()``).  Each applied send
    gives one breakdown per action, equal to what
    :func:`flowmod_breakdowns` reads from the same run's trace, but with
    no ``span_id`` or ``shifts``.
    """
    breakdowns: List[FlowModBreakdown] = []
    for channel in channels:
        for sent in channel.history():
            for completed in sent.completed:
                result = completed.result
                breakdowns.append(_breakdown(
                    None, channel.agent.name, completed.flow_mod.command.value,
                    completed.submit_time, completed.finish_time,
                    result.gatekeeper, completed.queue_delay, result.latency,
                    sent.channel_delay, sent.attempts, sent.delivered, None,
                    completed.flow_mod.xid,
                ))
    breakdowns.sort(key=_ORDER)
    return breakdowns


def summarize(header: dict, records: Sequence[dict]) -> TraceSummary:
    """Compute the full summary of one parsed trace."""
    record_counts: Dict[str, int] = {}
    event_counts: Dict[str, int] = {}
    samples: Dict[str, List[Tuple[float, float]]] = {}
    lo, hi = math.inf, -math.inf
    for record in records:
        rtype = record["type"]
        record_counts[rtype] = record_counts.get(rtype, 0) + 1
        if rtype == "span":
            lo = min(lo, record["start"])
            hi = max(hi, record["end"])
        elif rtype == "event":
            event_counts[record["name"]] = event_counts.get(record["name"], 0) + 1
            lo = min(lo, record["time"])
            hi = max(hi, record["time"])
        elif rtype == "sample":
            attrs = record.get("attrs", {})
            series_key = record["name"]
            if attrs:
                rendered = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
                series_key = f"{series_key}[{rendered}]"
            samples.setdefault(series_key, []).append(
                (record["time"], record["value"])
            )
            lo = min(lo, record["time"])
            hi = max(hi, record["time"])
    if lo > hi:
        lo = hi = 0.0
    return TraceSummary(
        header=header,
        breakdowns=flowmod_breakdowns(records),
        samples=samples,
        record_counts=record_counts,
        event_counts=event_counts,
        span_range=(lo, hi),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def stage_table(breakdowns: Sequence[FlowModBreakdown]) -> str:
    """The per-stage percentile table over installed FlowMods."""
    lines = [
        f"{'stage':<12}" + "".join(f"{'p' + str(p):>10}" for p in _PERCENTILES)
        + f"{'max':>10}{'mean (ms)':>12}"
    ]
    rows = list(STAGES) + ["total"]
    for stage_name in rows:
        if stage_name == "total":
            values = [item.total for item in breakdowns]
        else:
            values = [item.stage(stage_name) for item in breakdowns]
        mean = sum(values) / len(values) if values else 0.0
        lines.append(
            f"{stage_name:<12}"
            + "".join(_fmt_ms(percentile(values, p)) + " " for p in _PERCENTILES)
            + _fmt_ms(max(values) if values else 0.0)
            + " "
            + f"{mean * 1e3:10.4f}"
        )
    return "\n".join(lines)


def slowest_table(breakdowns: Sequence[FlowModBreakdown], top: int) -> str:
    """The top-k slowest FlowMods with their stage splits."""
    ranked = sorted(breakdowns, key=lambda item: -item.total)[:top]
    lines = []
    for item in ranked:
        lines.append(
            f"  t={item.start:8.4f}  {item.switch:<14} {item.command:<7}"
            f" total={item.total * 1e3:8.3f}ms"
            f"  gk={item.gatekeeper * 1e3:.3f}"
            f" queue={item.queue * 1e3:.3f}"
            f" tcam={item.tcam * 1e3:.3f}"
            f" chan={item.channel * 1e3:.3f}"
            f"  attempts={item.attempts}"
            + (f" shifts={item.shifts}" if item.shifts is not None else "")
        )
    return "\n".join(lines)


def occupancy_timeline(
    samples: Dict[str, List[Tuple[float, float]]],
    span_range: Tuple[float, float],
    bins: int = 24,
) -> str:
    """ASCII timeline of every gauge series, binned over the trace window.

    Each bin shows the last reading falling in it, scaled 0-9 against the
    series maximum (``.`` = no reading in that bin).
    """
    lines: List[str] = []
    lo, hi = span_range
    width = (hi - lo) or 1.0
    for name in sorted(samples):
        series = samples[name]
        values = [value for _, value in series]
        peak = max(values) if values else 0.0
        cells = ["."] * bins
        for stamp, value in series:
            index = min(bins - 1, max(0, int((stamp - lo) / width * bins)))
            level = 0 if peak <= 0 else int(round(value / peak * 9))
            cells[index] = str(min(9, max(0, level)))
        lines.append(
            f"  {name:<28} [{''.join(cells)}]  last={values[-1]:g} peak={peak:g}"
            if values
            else f"  {name:<28} (no readings)"
        )
    return "\n".join(lines)


def render_summary(summary: TraceSummary, top: int = 5, per_flowmod: bool = False) -> str:
    """The CLI's text report for one trace."""
    header = summary.header
    counts = summary.record_counts
    lo, hi = summary.span_range
    lines = [
        f"{header.get('format', '?')}: {sum(counts.values())} records "
        f"({counts.get('span', 0)} spans, {counts.get('event', 0)} events, "
        f"{counts.get('sample', 0)} samples), sim window "
        f"{lo:.3f}-{hi:.3f} s",
    ]
    meta = header.get("meta") or {}
    if meta:
        rendered = ", ".join(f"{key}={meta[key]}" for key in sorted(meta))
        lines.append(f"meta: {rendered}")
    installed = summary.breakdowns
    lines.append("")
    lines.append(f"per-stage latency over {len(installed)} installed FlowMods (ms):")
    lines.append(stage_table(installed))
    if installed and top > 0:
        lines.append("")
        lines.append(f"top {min(top, len(installed))} slowest FlowMods:")
        lines.append(slowest_table(installed, top))
    if summary.samples:
        lines.append("")
        lines.append("gauge timelines:")
        lines.append(occupancy_timeline(summary.samples, summary.span_range))
    if summary.event_counts:
        lines.append("")
        lines.append("events:")
        for name in sorted(summary.event_counts):
            lines.append(f"  {name:<28} {summary.event_counts[name]}")
    if per_flowmod and installed:
        lines.append("")
        lines.append("per-FlowMod breakdown (ms):")
        for item in installed:
            lines.append(
                f"  #{item.span_id:<6} t={item.start:8.4f} {item.switch:<14}"
                f" {item.command:<7}"
                f" gk={item.gatekeeper * 1e3:8.4f} queue={item.queue * 1e3:8.4f}"
                f" tcam={item.tcam * 1e3:8.4f} chan={item.channel * 1e3:8.4f}"
                f" total={item.total * 1e3:8.4f}"
            )
    return "\n".join(lines)


def render_diff(
    summary_a: TraceSummary, summary_b: TraceSummary, label_a: str, label_b: str
) -> str:
    """Compare two traces stage-by-stage (counts, p50/p99, gauge peaks)."""
    a, b = summary_a.breakdowns, summary_b.breakdowns
    lines = [
        f"A = {label_a}: {len(a)} installed FlowMods",
        f"B = {label_b}: {len(b)} installed FlowMods",
        "",
        f"{'stage':<12}{'A p50':>10}{'B p50':>10}{'Δp50':>10}"
        f"{'A p99':>10}{'B p99':>10}{'Δp99':>10}   (ms)",
    ]
    for stage_name in list(STAGES) + ["total"]:
        if stage_name == "total":
            va = [item.total for item in a]
            vb = [item.total for item in b]
        else:
            va = [item.stage(stage_name) for item in a]
            vb = [item.stage(stage_name) for item in b]
        a50, b50 = percentile(va, 50), percentile(vb, 50)
        a99, b99 = percentile(va, 99), percentile(vb, 99)
        lines.append(
            f"{stage_name:<12}"
            f"{a50 * 1e3:10.3f}{b50 * 1e3:10.3f}{(b50 - a50) * 1e3:+10.3f}"
            f"{a99 * 1e3:10.3f}{b99 * 1e3:10.3f}{(b99 - a99) * 1e3:+10.3f}"
        )
    event_names = sorted(
        set(summary_a.event_counts) | set(summary_b.event_counts)
    )
    if event_names:
        lines.append("")
        lines.append(f"{'event':<28}{'A':>8}{'B':>8}{'Δ':>8}")
        for name in event_names:
            ca = summary_a.event_counts.get(name, 0)
            cb = summary_b.event_counts.get(name, 0)
            lines.append(f"{name:<28}{ca:>8}{cb:>8}{cb - ca:>+8}")
    gauge_names = sorted(set(summary_a.samples) | set(summary_b.samples))
    if gauge_names:
        lines.append("")
        lines.append(f"{'gauge peak':<28}{'A':>10}{'B':>10}")
        for name in gauge_names:
            pa = max((v for _, v in summary_a.samples.get(name, [])), default=0.0)
            pb = max((v for _, v in summary_b.samples.get(name, [])), default=0.0)
            lines.append(f"{name:<28}{pa:>10g}{pb:>10g}")
    return "\n".join(lines)
