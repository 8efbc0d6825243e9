"""Section 8.6 (text): predictor x corrector sensitivity.

"We observed that Cubic Spline provided the lowest prediction error,
especially when combined with Slack.  We observed that the combination of
Cubic Spline and Slack reduced rule installation time by 80%-94% over
existing alternatives (EWMA+Slack, EWMA+Deadzone, Cubic Spline+Deadzone)."

Every (predictor, corrector) pair runs the same microbench trace; the table
reports mean/p99 installation latency and the violation percentage.  The
workload is *non-stationary* (the arrival rate ramps), because a stationary
Poisson stream hides the differences between predictors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis import ExperimentResult
from ..core import GuaranteeSpec, HermesConfig
from ..traffic import MicrobenchConfig, TimedFlowMod, generate_trace, seed_rules
from .common import replay_trace

PAIRS: Tuple[Tuple[str, str], ...] = (
    ("cubic-spline", "slack"),
    ("cubic-spline", "deadzone"),
    ("ewma", "slack"),
    ("ewma", "deadzone"),
    ("arma", "slack"),
    ("arma", "deadzone"),
)


@dataclass
class SensitivityConfig:
    """Trace and sweep parameters."""

    switch: str = "dell-8132f"
    base_rate: float = 200.0
    peak_rate: float = 1200.0
    overlap_rate: float = 0.5
    duration: float = 2.0
    slack: float = 1.0
    deadzone_margin: float = 50.0


def ramping_trace(config: SensitivityConfig) -> List[TimedFlowMod]:
    """A trace whose rate ramps from base to peak and back (two cycles).

    Built by time-warping a constant-rate trace: predictors that
    extrapolate trends (the spline) anticipate the ramps; level-trackers
    (EWMA) lag them.
    """
    flat = generate_trace(
        MicrobenchConfig(
            arrival_rate=(config.base_rate + config.peak_rate) / 2,
            overlap_rate=config.overlap_rate,
            duration=config.duration,
        )
    )
    warped: List[TimedFlowMod] = []
    total = len(flat)
    time = 0.0
    for index, timed in enumerate(flat):
        phase = np.sin(2.0 * np.pi * 2.0 * index / total) * 0.5 + 0.5
        rate = config.base_rate + (config.peak_rate - config.base_rate) * phase
        time += 1.0 / rate
        warped.append(TimedFlowMod(time=time, flow_mod=timed.flow_mod))
    return warped


def run_pair(
    predictor: str, corrector: str, config: SensitivityConfig
) -> Tuple[float, float, float]:
    """(mean ms, p99 ms, violation %) for one predictor/corrector pair."""
    hermes_config = HermesConfig(
        guarantee=GuaranteeSpec.milliseconds(5),
        predictor=predictor,
        corrector=corrector,
        slack=config.slack,
        deadzone_margin=config.deadzone_margin,
        admission_control=False,
        lowest_priority_fastpath=False,
    )
    trace_config = MicrobenchConfig(
        arrival_rate=config.base_rate,
        overlap_rate=config.overlap_rate,
        duration=config.duration,
    )
    outcome = replay_trace(
        ramping_trace(config),
        "hermes",
        config.switch,
        hermes_config=hermes_config,
        prefill_rules=seed_rules(trace_config),
    )
    latencies = np.asarray(outcome.response_times)
    return (
        float(latencies.mean() * 1e3),
        float(np.percentile(latencies, 99) * 1e3),
        outcome.installer.violation_percentage(),
    )


def run(config: SensitivityConfig = SensitivityConfig()) -> ExperimentResult:
    """Regenerate the predictor/corrector comparison."""
    rows: List[tuple] = []
    results = {}
    for predictor, corrector in PAIRS:
        mean_ms, p99_ms, violations = run_pair(predictor, corrector, config)
        results[(predictor, corrector)] = mean_ms
        rows.append(
            (
                predictor,
                corrector,
                round(mean_ms, 3),
                round(p99_ms, 3),
                round(violations, 2),
            )
        )
    best = min(results, key=results.get)
    return ExperimentResult(
        experiment_id="Section 8.6",
        title="Predictor x corrector sensitivity (ramping microbench)",
        headers=[
            "predictor",
            "corrector",
            "mean latency (ms)",
            "p99 latency (ms)",
            "violations (%)",
        ],
        rows=rows,
        notes=(
            f"Lowest mean latency: {best[0]} + {best[1]}. Shape: the paper "
            "finds Cubic Spline + Slack most effective on dynamic "
            "workloads; Slack generally beats Deadzone because it scales "
            "with the forecast."
        ),
    )
