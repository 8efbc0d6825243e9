"""Figure 9: CDF of flow completion time — Facebook (all / short) and Geant.

Same runs as Figure 8, but the reported metric is per-flow FCT.  The
Facebook panel is split into all jobs and short jobs: short flows cannot
amortize control-plane stalls over a long lifetime, so the gap between the
raw switches and Hermes is widest there (the paper reports a 95th-percentile
improvement of ~80% for short flows, close to the raw RIT-level gains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis import ExperimentResult, percentile_summary
from .common import (
    QUICK_SCALE,
    WorkloadScale,
    facebook_workload,
    isp_workload,
    run_schemes,
    te_simulation_config,
)
from .fig08_rit import scheme_runs


@dataclass
class Fig09Config:
    """Scale and percentiles for the FCT CDFs."""

    scale: WorkloadScale = field(default_factory=lambda: QUICK_SCALE)
    hermes_switch: str = "pica8-p3290"
    percentiles: Tuple[float, ...] = (50, 90, 95)


def _fct_series(metrics, short_ids) -> Dict[str, List[float]]:
    all_fcts: List[float] = []
    short_fcts: List[float] = []
    for record in metrics.flow_records():
        if not record.completed:
            continue
        all_fcts.append(record.fct)
        if record.spec.job_id in short_ids:
            short_fcts.append(record.fct)
    return {"all": all_fcts, "short": short_fcts}


def run(config: Fig09Config = Fig09Config()) -> ExperimentResult:
    """Regenerate the Figure 9 CDFs (reported at fixed percentiles)."""
    rows: List[tuple] = []
    runs = scheme_runs(config.hermes_switch)

    # Panels (a) and (b): Facebook, all jobs and short jobs.
    graph, flows, short_ids, _ = facebook_workload(config.scale)
    facebook = run_schemes(graph, flows, runs, te_simulation_config(config.scale))
    for label, metrics in facebook.items():
        for panel, fcts in _fct_series(metrics, short_ids).items():
            if not fcts:
                continue
            summary = percentile_summary(fcts, config.percentiles)
            rows.append(
                (f"facebook/{panel}", label, len(fcts))
                + tuple(round(summary[p], 4) for p in config.percentiles)
            )

    # Panel (c): Geant.
    graph, flows = isp_workload("geant", config.scale)
    wan_config = te_simulation_config(config.scale, control_rtt=10e-3)
    for label, metrics in run_schemes(graph, flows, runs, wan_config).items():
        fcts = metrics.fcts()
        if not fcts:
            continue
        summary = percentile_summary(fcts, config.percentiles)
        rows.append(
            ("geant", label, len(fcts))
            + tuple(round(summary[p], 4) for p in config.percentiles)
        )

    headers = ["panel", "scheme", "n"] + [f"p{int(p)} (s)" for p in config.percentiles]
    return ExperimentResult(
        experiment_id="Figure 9",
        title="Flow completion time CDFs (Facebook all/short, Geant)",
        headers=headers,
        rows=rows,
        notes=(
            "Shape: schemes converge for long flows (transfer time "
            "dominates); the short-flow panel shows the largest relative "
            "gap in Hermes's favour, mirroring the RIT-level gains."
        ),
    )
