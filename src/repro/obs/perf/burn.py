"""The guarantee-burn ledger: SLO compliance of control actions.

Hermes's product is a *latency guarantee* — the paper's default is 5 ms
per rule installation.  Every control action's latency splits into the
four layers of the control path (:data:`repro.obs.summary.STAGES`:
gatekeeper → queue → tcam → channel), read from a trace by
:func:`~repro.obs.summary.flowmod_breakdowns` or from an untraced run by
:func:`~repro.obs.summary.run_breakdowns`.  This module scores those
breakdowns against the configured guarantee and reports, as one
structured object:

* **compliance** — how many actions landed inside the budget, split by
  command, the violation rate, and the burn-fraction distribution
  (latency divided by guarantee: 1.0 = the budget exactly spent);
* **violation windows** — contiguous sim-time intervals holding the
  violations, merged when closer than ``window_gap`` (a burst of
  violations reads as one incident, the way an SLO postmortem slices
  time);
* **per-layer budget attribution** — how much of the budget each layer
  burned on average and at the tail, so "the channel ate the budget" and
  "the TCAM ate the budget" are distinguishable at a glance.

The ledger is pure sim-time arithmetic — it never reads the wall clock
and never perturbs a run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

from ..summary import DEFAULT_GUARANTEE_SECONDS, STAGES, FlowModBreakdown, percentile

#: Violations closer together than this (sim seconds) merge into one window.
DEFAULT_WINDOW_GAP = 0.05


@dataclass(frozen=True)
class ViolationWindow:
    """One contiguous burst of guarantee violations.

    Attributes:
        start: sim time of the first violating action's start.
        end: sim time of the last violating action's end.
        count: violating actions inside the window.
        worst_seconds: the slowest action's attributed latency.
        worst_layer: the layer that burned the most budget in the window.
    """

    start: float
    end: float
    count: int
    worst_seconds: float
    worst_layer: str


@dataclass
class LayerBurn:
    """One layer's share of the guarantee budget across actions."""

    mean_seconds: float = 0.0
    p99_seconds: float = 0.0
    mean_budget_share: float = 0.0  # mean(layer / guarantee)
    share_of_latency: float = 0.0  # layer total / all-layer total


@dataclass
class GuaranteeBurnReport:
    """Everything the ledger derives from one run + one guarantee."""

    guarantee_seconds: float
    actions: int
    commands: Dict[str, int]
    compliant: int
    violations: int
    violation_rate: float
    burn_p50: float
    burn_p99: float
    burn_max: float
    layers: Dict[str, LayerBurn] = field(default_factory=dict)
    windows: List[ViolationWindow] = field(default_factory=list)
    worst: List[FlowModBreakdown] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready payload for the ``hermes-perf/2`` artifact."""
        payload = asdict(self)
        payload["worst"] = [
            {
                "switch": item.switch,
                "start": item.start,
                "total_seconds": item.total,
                "burn": item.total / self.guarantee_seconds,
            }
            for item in self.worst
        ]
        return payload

    def headline(self) -> str:
        """Actions by command, then compliant and violating counts."""
        split = ", ".join(
            f"{count} {command}" for command, count in sorted(self.commands.items())
        ) or "none"
        return (
            f"{self.actions} control actions ({split}), "
            f"{self.compliant} compliant, {self.violations} violations "
            f"({self.violation_rate * 100:.2f}%)"
        )

    def render(self) -> str:
        """The CLI's text report for one ledger."""
        g_ms = self.guarantee_seconds * 1e3
        lines = [
            f"guarantee-burn ledger against a {g_ms:g} ms guarantee:",
            f"  {self.headline()}",
            f"  budget burn: p50={self.burn_p50 * 100:.1f}%  "
            f"p99={self.burn_p99 * 100:.1f}%  max={self.burn_max * 100:.1f}%",
            "",
            f"  {'layer':<12}{'mean (ms)':>11}{'p99 (ms)':>11}"
            f"{'of budget':>11}{'of latency':>12}",
        ]
        for name in STAGES:
            layer = self.layers.get(name, LayerBurn())
            lines.append(
                f"  {name:<12}{layer.mean_seconds * 1e3:>11.4f}"
                f"{layer.p99_seconds * 1e3:>11.4f}"
                f"{layer.mean_budget_share * 100:>10.1f}%"
                f"{layer.share_of_latency * 100:>11.1f}%"
            )
        if self.windows:
            lines.append("")
            lines.append(f"  {len(self.windows)} violation window(s):")
            for window in self.windows:
                lines.append(
                    f"    t={window.start:8.3f}-{window.end:8.3f}  "
                    f"{window.count:>4} violations  worst "
                    f"{window.worst_seconds * 1e3:.3f} ms "
                    f"(dominated by {window.worst_layer})"
                )
        else:
            lines.append("")
            lines.append("  no violation windows: every action met the budget")
        if self.worst:
            lines.append("")
            lines.append("  worst offenders:")
            for item in self.worst:
                lines.append(
                    f"    t={item.start:8.3f} {item.switch:<14} "
                    f"total={item.total * 1e3:8.3f} ms "
                    f"({item.total / self.guarantee_seconds * 100:.0f}% of "
                    f"budget)  gk={item.gatekeeper * 1e3:.3f} "
                    f"queue={item.queue * 1e3:.3f} tcam={item.tcam * 1e3:.3f} "
                    f"chan={item.channel * 1e3:.3f}"
                )
        return "\n".join(lines)


def _dominant_layer(item: FlowModBreakdown) -> str:
    return max(STAGES, key=lambda stage: item.stage(stage))


def _merge_windows(
    violating: Sequence[FlowModBreakdown], gap: float
) -> List[ViolationWindow]:
    windows: List[ViolationWindow] = []
    current: List[FlowModBreakdown] = []
    for item in violating:  # breakdowns arrive sorted by start
        if current and item.start - current[-1].end > gap:
            windows.append(_freeze_window(current))
            current = []
        current.append(item)
    if current:
        windows.append(_freeze_window(current))
    return windows


def _freeze_window(items: Sequence[FlowModBreakdown]) -> ViolationWindow:
    worst = max(items, key=lambda item: item.total)
    return ViolationWindow(
        start=items[0].start,
        end=max(item.end for item in items),
        count=len(items),
        worst_seconds=worst.total,
        worst_layer=_dominant_layer(worst),
    )


def guarantee_burn(
    breakdowns: Sequence[FlowModBreakdown],
    guarantee: float = DEFAULT_GUARANTEE_SECONDS,
    window_gap: float = DEFAULT_WINDOW_GAP,
    top: int = 5,
) -> GuaranteeBurnReport:
    """Score per-action breakdowns against a guarantee.

    Args:
        breakdowns: :class:`~repro.obs.summary.FlowModBreakdown` items
            sorted by start, as both producers give them.
        guarantee: the per-action budget in sim seconds.
        window_gap: merge violations closer than this into one window.
        top: worst offenders to keep on the report.

    Raises:
        ValueError: on a non-positive guarantee.
    """
    if guarantee <= 0:
        raise ValueError(f"guarantee must be positive: {guarantee!r}")
    violating = [item for item in breakdowns if item.total > guarantee]
    burns = [item.total / guarantee for item in breakdowns]
    total_latency = sum(item.total for item in breakdowns)
    layers: Dict[str, LayerBurn] = {}
    for name in STAGES:
        values = [item.stage(name) for item in breakdowns]
        layer_total = sum(values)
        layers[name] = LayerBurn(
            mean_seconds=layer_total / len(values) if values else 0.0,
            p99_seconds=percentile(values, 99),
            mean_budget_share=(
                layer_total / (len(values) * guarantee) if values else 0.0
            ),
            share_of_latency=(
                layer_total / total_latency if total_latency > 0 else 0.0
            ),
        )
    worst = sorted(violating or breakdowns, key=lambda item: -item.total)[:top]
    return GuaranteeBurnReport(
        guarantee_seconds=guarantee,
        actions=len(breakdowns),
        commands=dict(Counter(item.command for item in breakdowns)),
        compliant=len(breakdowns) - len(violating),
        violations=len(violating),
        violation_rate=len(violating) / len(breakdowns) if breakdowns else 0.0,
        burn_p50=percentile(burns, 50),
        burn_p99=percentile(burns, 99),
        burn_max=max(burns, default=0.0),
        layers=layers,
        windows=_merge_windows(violating, window_gap),
        worst=worst,
    )
