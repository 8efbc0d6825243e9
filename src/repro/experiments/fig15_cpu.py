"""Figure 15: CPU/memory utilization and algorithm runtimes vs. rule count.

The paper ran Hermes's insertion and migration algorithms on an Edge-Core
AS5712's control CPU while varying the rules processed per second between
100 and 20000, observing (a) utilization growing linearly with load and (b)
insertion-algorithm runtime staying ~flat while migration runtime grows
super-linearly ("cubic growth pattern").

We time our *actual* Python implementations — :func:`partition_new_rule`
against a populated main table for the insertion side, and a real
:class:`RuleManager` migration for the migration side — and measure memory
with ``tracemalloc``.  Absolute numbers differ from the AS5712's (different
CPU, different language); the growth shapes are the reproduction target.
The flat insertion side and linear memory reproduce.  Measured migration
time grows about linearly, not cubically: each main-table write finds its
slot by bisection, and the timed window also holds ``tracemalloc`` and the
upkeep of the main table's overlap index.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import List, Tuple

from ..analysis import ExperimentResult
from ..obs.perf.wallclock import wallclock
from ..core import (
    CubicSplinePredictor,
    PartitionMap,
    PredictiveTrigger,
    RuleManager,
    SlackCorrector,
    partition_new_rule,
)
from ..tcam import Action, Rule, TcamTable, ideal_switch


@dataclass
class Fig15Config:
    """Rule counts to sweep (the paper sweeps 100 .. 20000)."""

    rule_counts: Tuple[int, ...] = (100, 500, 1000, 2500, 5000)


def _rules(count: int) -> List[Rule]:
    return [
        Rule.from_prefix(
            f"10.{(index // 250) % 250}.{index % 250}.0/24",
            50 + (index % 100),
            Action.output(1),
        )
        for index in range(count)
    ]


def time_insertion_algorithm(rule_count: int, main_table_size: int = 500) -> float:
    """Per-rule wall-clock seconds of Algorithm 1 over a ``rule_count`` batch.

    The paper's x-axis is the rules *processed* (arrival-rate sweep): the
    per-rule insertion cost depends on the fixed main-table size, not the
    batch size, which is why the insertion series is near-flat.
    """
    main_rules = _rules(main_table_size)
    # Fig 15 measures the *real* CPU cost of the algorithms; wall time is
    # the quantity under test here, not simulated time.
    start = wallclock()
    for probe in range(rule_count):
        new_rule = Rule.from_prefix(
            f"10.{probe % 200}.0.0/16", 10, Action.output(2)
        )
        partition_new_rule(new_rule, main_rules)
    return (wallclock() - start) / rule_count


def time_migration_algorithm(rule_count: int) -> Tuple[float, float]:
    """(wall seconds, peak MiB) of one migration moving ``rule_count`` rules.

    Uses the ideal (zero-latency) switch model so the measurement isolates
    the algorithm's CPU cost from modelled TCAM latency.
    """
    timing = ideal_switch()
    shadow = TcamTable(timing, capacity=rule_count + 8, name="shadow")
    main = TcamTable(timing, capacity=max(rule_count * 2, 64), name="main")
    pmap = PartitionMap()
    manager = RuleManager(
        shadow,
        main,
        pmap,
        PredictiveTrigger(CubicSplinePredictor(), SlackCorrector(1.0)),
    )
    for rule in _rules(rule_count):
        shadow.insert(rule)
    tracemalloc.start()
    start = wallclock()
    manager.migrate(now=0.0)
    elapsed = wallclock() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak / (1024 * 1024)


def run(config: Fig15Config = Fig15Config()) -> ExperimentResult:
    """Regenerate the Figure 15 series."""
    rows = []
    for count in config.rule_counts:
        insertion = time_insertion_algorithm(count)
        migration, peak_mib = time_migration_algorithm(count)
        rows.append(
            (
                count,
                round(insertion * 1e3, 4),
                round(migration * 1e3, 3),
                round(peak_mib, 3),
            )
        )
    # Shape check material: growth factors relative to the first row.
    base_insert = rows[0][1] or 1e-9
    base_migrate = rows[0][2] or 1e-9
    notes_lines = [
        "Shape: insertion runtime stays near-flat; migration runtime grows",
        "with the rules processed (about linearly here, cubically on the",
        "paper's AS5712); memory grows linearly. Growth vs. the smallest point:",
    ]
    for row in rows:
        notes_lines.append(
            f"  n={row[0]:>6}: insertion x{row[1] / base_insert:.1f}, "
            f"migration x{row[2] / base_migrate:.1f}"
        )
    return ExperimentResult(
        experiment_id="Figure 15",
        title="Algorithm runtimes and memory vs. number of rules",
        headers=[
            "rules",
            "insertion algorithm (ms/rule)",
            "migration (ms total)",
            "peak memory (MiB)",
        ],
        rows=rows,
        notes="\n".join(notes_lines),
    )
