"""Figure 1: CDF of the increased ratio of JCT, short vs. long jobs.

The motivating experiment: the Facebook MapReduce workload runs on a fat
tree under the proactive TE app, once with a zero-latency control plane and
once per scheme under test (a realistic Pica8, Hermes, Tango, ESPRES).
Each job's *increase ratio* is its JCT divided by the same job's JCT in the
zero-latency run; the figure is the CDF of those ratios, split at 1 GB into
short and long jobs.

Expected shape: short jobs suffer visibly more than long jobs on the raw
switch (the paper reports 1.5-2x vs 1.05-1.25x at the median at full
scale), and Hermes sits closest to 1.0 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..analysis import ExperimentResult, increase_ratios, percentile_summary
from .common import (
    QUICK_SCALE,
    FULL_SCALE,
    WorkloadScale,
    facebook_workload,
    run_schemes,
    te_simulation_config,
)

SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("Pica8 P-3290", "naive"),
    ("Hermes", "hermes"),
    ("Tango", "tango"),
    ("ESPRES", "espres"),
)
#: Label of the zero-latency reference run every ratio divides by.
BASELINE = "zero-latency"


@dataclass
class Fig01Config:
    """Scale and switch for the Figure 1 run."""

    scale: WorkloadScale = field(default_factory=lambda: QUICK_SCALE)
    switch: str = "pica8-p3290"
    percentiles: Tuple[float, ...] = (50, 75, 90, 95)

    @classmethod
    def full(cls) -> "Fig01Config":
        """Paper-scale configuration (k=16, thousands of jobs; slow)."""
        return cls(scale=FULL_SCALE)


def run(config: Fig01Config = Fig01Config()) -> ExperimentResult:
    """Regenerate the Figure 1 CDFs (reported at fixed percentiles)."""
    graph, flows, short_ids, long_ids = facebook_workload(config.scale)
    runs = [(BASELINE, "naive", "ideal")]
    runs += [(label, scheme, config.switch) for label, scheme in SCHEMES]
    metrics = run_schemes(graph, flows, runs, te_simulation_config(config.scale))
    baseline_jcts = metrics[BASELINE].jcts()

    rows: List[tuple] = []
    for label, _scheme in SCHEMES:
        jcts = metrics[label].jcts()
        for job_class, ids in (("short", short_ids), ("long", long_ids)):
            class_baseline = {j: baseline_jcts[j] for j in baseline_jcts if j in ids}
            class_subject = {j: jcts[j] for j in jcts if j in ids}
            ratios = increase_ratios(class_baseline, class_subject)
            if not ratios:
                continue
            summary = percentile_summary(ratios, config.percentiles)
            rows.append(
                (label, job_class, len(ratios))
                + tuple(round(summary[p], 4) for p in config.percentiles)
            )
    headers = ["scheme", "jobs", "n"] + [f"p{int(p)}" for p in config.percentiles]
    return ExperimentResult(
        experiment_id="Figure 1",
        title="Increased ratio of JCT vs. a zero-latency control plane",
        headers=headers,
        rows=rows,
        notes=(
            "Ratios are per-job JCT divided by the zero-latency run's JCT. "
            "Shape: short jobs inflate more than long jobs on the raw "
            "switch; Hermes stays closest to 1.0. Quick scale softens the "
            "magnitudes relative to the paper's k=16/24402-job run."
        ),
    )
