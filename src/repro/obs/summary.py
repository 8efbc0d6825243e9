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
result.  Stages are clamped at zero.  The one per-stage report is the
guarantee-burn ledger (:mod:`repro.obs.perf.burn`): :func:`render_summary`
prints a trace's, and :func:`render_diff` compares two traces' ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple

#: The per-FlowMod stages, in presentation order.
STAGES: Tuple[str, ...] = ("gatekeeper", "queue", "tcam", "channel")

#: The paper's headline guarantee: 5 ms per rule installation.
DEFAULT_GUARANTEE_SECONDS = 5e-3


@dataclass
class FlowModBreakdown:
    """One control action's per-stage latency split."""

    switch: str
    command: str
    start: float
    end: float
    gatekeeper: float
    queue: float
    tcam: float
    channel: float

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
    switch, command, start, end, gatekeeper, queue_delay, exec_latency, channel,
) -> FlowModBreakdown:
    """A breakdown with every stage clamped at zero."""
    gatekeeper = max(0.0, gatekeeper)
    return FlowModBreakdown(
        switch, command, start, end, gatekeeper, max(0.0, queue_delay),
        max(0.0, exec_latency - gatekeeper), max(0.0, channel),
    )


def flowmod_breakdowns(records: Sequence[dict]) -> List[FlowModBreakdown]:
    """One breakdown per ``agent.action`` span of a trace.

    An action span carries its own ``gatekeeper``, ``queue_delay`` and
    ``exec_latency``; its ``flowmod`` grandparent (action, ``agent.batch``,
    ``flowmod``) carries ``channel``.  An action with no channel span (a
    direct ``SwitchAgent.submit``, as in the replay harnesses) gets a zero
    channel stage.  Undelivered sends hold no action span and are left
    out: they installed nothing.
    """
    by_id = {record["id"]: record for record in records if record["type"] == "span"}
    breakdowns: List[FlowModBreakdown] = []
    for span in by_id.values():
        if span["name"] != "agent.action":
            continue
        attrs = span["attrs"]
        channel = 0.0
        batch = by_id.get(span["parent"])
        if batch is not None and batch["name"] == "agent.batch":
            flowmod = by_id.get(batch["parent"])
            if flowmod is not None and flowmod["name"] == "flowmod":
                channel = flowmod["attrs"].get("channel", 0.0)
        breakdowns.append(_breakdown(
            str(attrs.get("switch", "?")), str(attrs.get("command", "?")),
            span["start"], span["end"], attrs.get("gatekeeper", 0.0),
            attrs.get("queue_delay", 0.0),
            attrs.get("exec_latency", span["end"] - span["start"]), channel,
        ))
    breakdowns.sort(key=_ORDER)
    return breakdowns


def run_breakdowns(channels: Iterable) -> List[FlowModBreakdown]:
    """The breakdowns of a run, traced or not, from its channel histories.

    ``channels`` are :class:`~repro.switchsim.channel.Channel` objects
    (``simulation.controller.channels.values()``).  Each applied send
    gives one breakdown per action, equal to what
    :func:`flowmod_breakdowns` reads from the same run's trace.
    """
    breakdowns: List[FlowModBreakdown] = []
    for channel in channels:
        for sent in channel.history():
            for completed in sent.completed:
                result = completed.result
                breakdowns.append(_breakdown(
                    channel.agent.name, completed.flow_mod.command.value,
                    completed.submit_time, completed.finish_time,
                    result.gatekeeper, completed.queue_delay, result.latency,
                    sent.channel_delay,
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


def _ledger(summary: TraceSummary, guarantee: float = DEFAULT_GUARANTEE_SECONDS):
    # The ledger scores this module's breakdowns, so it imports from here.
    from .perf.burn import guarantee_burn

    return guarantee_burn(summary.breakdowns, guarantee=guarantee)


def render_summary(
    summary: TraceSummary, guarantee: float = DEFAULT_GUARANTEE_SECONDS
) -> str:
    """The CLI's text report for one trace: its header, the guarantee-burn
    ledger of its control actions, then its gauges and event counts."""
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
    lines.append("")
    lines.append(_ledger(summary, guarantee).render())
    if summary.samples:
        lines.append("")
        lines.append("gauge timelines:")
        lines.append(occupancy_timeline(summary.samples, summary.span_range))
    if summary.event_counts:
        lines.append("")
        lines.append("events:")
        for name in sorted(summary.event_counts):
            lines.append(f"  {name:<28} {summary.event_counts[name]}")
    return "\n".join(lines)


def render_diff(
    summary_a: TraceSummary, summary_b: TraceSummary, label_a: str, label_b: str
) -> str:
    """Compare two traces: their ledgers' actions, violations and
    per-layer mean/p99 against the default guarantee, then event counts
    and gauge peaks."""
    a, b = _ledger(summary_a), _ledger(summary_b)
    lines = [
        f"A = {label_a}: {a.headline()}",
        f"B = {label_b}: {b.headline()}",
        "",
        f"{'layer':<12}{'A mean':>10}{'B mean':>10}{'Δmean':>10}"
        f"{'A p99':>10}{'B p99':>10}{'Δp99':>10}   (ms)",
    ]
    for name in STAGES:
        la, lb = a.layers[name], b.layers[name]
        lines.append(
            f"{name:<12}"
            f"{la.mean_seconds * 1e3:10.3f}{lb.mean_seconds * 1e3:10.3f}"
            f"{(lb.mean_seconds - la.mean_seconds) * 1e3:+10.3f}"
            f"{la.p99_seconds * 1e3:10.3f}{lb.p99_seconds * 1e3:10.3f}"
            f"{(lb.p99_seconds - la.p99_seconds) * 1e3:+10.3f}"
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
