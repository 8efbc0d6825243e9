"""Figure 8: CDF of rule installation time (RIT), Facebook and Geant.

RITs are collected from every TE-issued rule installation across all
switches in the simulated network.  One line per raw switch model plus
Hermes (configured with the paper's 5 ms guarantee on the Pica8).

Expected shape: the raw switches have medians in the tens of milliseconds
with long tails; Hermes's distribution is compressed near its guarantee
(the paper reports median improvements of 80-94%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis import ExperimentResult, median_improvement, percentile_summary
from ..tcam import get_switch_model
from .common import (
    QUICK_SCALE,
    SWITCHES_UNDER_TEST,
    WorkloadScale,
    facebook_workload,
    isp_workload,
    run_schemes,
    te_simulation_config,
)


@dataclass
class Fig08Config:
    """Workloads and percentiles for the RIT CDFs."""

    scale: WorkloadScale = field(default_factory=lambda: QUICK_SCALE)
    workloads: Tuple[str, ...] = ("facebook", "geant")
    hermes_switch: str = "pica8-p3290"
    percentiles: Tuple[float, ...] = (50, 90, 95, 99)


def scheme_runs(hermes_switch: str) -> List[Tuple[str, str, str]]:
    """The ``(label, scheme, switch)`` runs of Figures 8 and 9: each raw
    switch model, then Hermes on ``hermes_switch``."""
    runs = [
        (get_switch_model(switch).name, "naive", switch)
        for switch in SWITCHES_UNDER_TEST
    ]
    runs.append(("Hermes", "hermes", hermes_switch))
    return runs


def collect_rits(
    workload: str, scale: WorkloadScale, hermes_switch: str
) -> Dict[str, List[float]]:
    """RIT samples per scheme for one workload."""
    if workload == "facebook":
        graph, flows, _, _ = facebook_workload(scale)
        sim_config = te_simulation_config(scale)
    else:
        graph, flows = isp_workload(workload, scale)
        sim_config = te_simulation_config(scale, control_rtt=10e-3)  # WAN RTT
    metrics = run_schemes(graph, flows, scheme_runs(hermes_switch), sim_config)
    return {label: run.rits() for label, run in metrics.items()}


def run(config: Fig08Config = Fig08Config()) -> ExperimentResult:
    """Regenerate the Figure 8 CDFs (reported at fixed percentiles)."""
    rows: List[tuple] = []
    notes_lines = [
        "RITs include queueing at the switch CPU. Shape: raw switches show",
        "long tails; Hermes compresses the distribution near its 5 ms",
        "guarantee. Median improvements vs. each raw switch:",
    ]
    for workload in config.workloads:
        series = collect_rits(workload, config.scale, config.hermes_switch)
        hermes_rits = series.get("Hermes", [])
        for scheme, rits in series.items():
            if not rits:
                continue
            summary = percentile_summary(rits, config.percentiles)
            rows.append(
                (workload, scheme, len(rits))
                + tuple(round(summary[p] * 1e3, 3) for p in config.percentiles)
            )
            if scheme != "Hermes" and hermes_rits and rits:
                improvement = median_improvement(rits, hermes_rits)
                notes_lines.append(
                    f"  {workload}/{scheme}: {100 * improvement:.0f}%"
                )
    headers = ["workload", "scheme", "n"] + [
        f"p{int(p)} (ms)" for p in config.percentiles
    ]
    return ExperimentResult(
        experiment_id="Figure 8",
        title="Rule installation time CDFs (Facebook, Geant)",
        headers=headers,
        rows=rows,
        notes="\n".join(notes_lines),
    )
