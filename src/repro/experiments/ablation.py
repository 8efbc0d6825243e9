"""Ablations of Hermes's design choices (DESIGN.md Section 4).

Not a paper figure — these benches isolate the contribution of each
mechanism the paper describes:

* **lowest-priority fastpath** (Section 4.2): without it, bottom-priority
  rules burn shadow space and partition heavily;
* **migration optimization** (Figure 7 step 2): without it, fragment
  families are written to the main table verbatim, inflating occupancy;
* **atomic migration** (Section 5.2): without insert-before-delete, packets
  fall into transient coverage gaps, measured as gap-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis import ExperimentResult
from ..core import GuaranteeSpec, HermesConfig
from ..traffic import MicrobenchConfig, generate_trace, seed_rules
from .common import replay_trace


@dataclass
class AblationConfig:
    """Workload for the ablation runs."""

    switch: str = "pica8-p3290"
    arrival_rate: float = 800.0
    overlap_rate: float = 0.6
    duration: float = 1.5


VARIANTS: Tuple[Tuple[str, dict], ...] = (
    ("full Hermes", {}),
    ("no fastpath", {"lowest_priority_fastpath": False}),
    ("no migration optimizer", {"optimize_migration": False}),
    ("non-atomic migration", {"atomic_migration": False}),
    ("threshold trigger (50%)", {"threshold": 0.5}),
)


def run_variant(overrides: dict, config: AblationConfig):
    """Replay the shared workload against one Hermes variant."""
    hermes_config = HermesConfig(
        guarantee=GuaranteeSpec.milliseconds(5),
        slack=1.0,
        admission_control=False,
        **overrides,
    )
    trace_config = MicrobenchConfig(
        arrival_rate=config.arrival_rate,
        overlap_rate=config.overlap_rate,
        duration=config.duration,
    )
    outcome = replay_trace(
        generate_trace(trace_config),
        "hermes",
        config.switch,
        hermes_config=hermes_config,
        prefill_rules=seed_rules(trace_config),
    )
    installer = outcome.installer
    latencies = np.asarray(outcome.response_times)
    migrations = installer.rule_manager.migrations
    gap_time = sum(report.transient_gap_time for report in migrations)
    written = sum(report.rules_written for report in migrations)
    return {
        "mean_ms": float(latencies.mean() * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "violations": installer.violation_percentage(),
        "migrations": len(migrations),
        "rules_written": written,
        "gap_ms": gap_time * 1e3,
        "main_occupancy": installer.main.occupancy,
    }


def run(config: AblationConfig = AblationConfig()) -> ExperimentResult:
    """Run every ablation variant on the shared workload."""
    rows: List[tuple] = []
    for label, overrides in VARIANTS:
        stats = run_variant(overrides, config)
        rows.append(
            (
                label,
                round(stats["mean_ms"], 3),
                round(stats["p99_ms"], 3),
                round(stats["violations"], 2),
                stats["migrations"],
                stats["rules_written"],
                round(stats["gap_ms"], 3),
                stats["main_occupancy"],
            )
        )
    return ExperimentResult(
        experiment_id="Ablation",
        title="Contribution of each Hermes design choice",
        headers=[
            "variant",
            "mean RIT (ms)",
            "p99 RIT (ms)",
            "violations (%)",
            "migrations",
            "rules written",
            "gap (ms)",
            "main occupancy",
        ],
        rows=rows,
        notes=(
            "Expected: the migration optimizer cuts rules-written and main "
            "occupancy; atomic migration is the only variant with zero gap "
            "time; the threshold trigger trades violations for fewer "
            "migrations."
        ),
    )
