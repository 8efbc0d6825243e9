"""Guarantee math: shadow sizing, overheads, and Equations 1 & 2.

A guarantee of *g* seconds bounds the shadow table's capacity: the shadow may
hold at most as many rules as keep the worst-case insertion latency within
*g* (the insertion time is monotone in occupancy, Section 2.1).  The TCAM
space overhead (Figure 14) is the ratio of that shadow capacity to the TCAM's
physical capacity.  The sustainable insertion rate is Equation 1,
``lambda = S_ST / t_m``, degraded by the expected partition count ``r_p`` in
Equation 2, ``lambda = S_ST / (r_p * t_m)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tcam.timing import EmpiricalTimingModel

#: Seconds of optimizer CPU per rule-sqrt(rules) unit of work (calibrates
#: the Figure 15(b) curve).
OPTIMIZER_UNIT_COST = 2e-6


@dataclass(frozen=True)
class GuaranteeSpec:
    """An operator-requested performance guarantee.

    Attributes:
        insertion_latency: upper bound, in seconds, on the time any single
            guaranteed rule insertion may take (the paper's headline
            configuration is 5 ms).
    """

    insertion_latency: float

    def __post_init__(self) -> None:
        if self.insertion_latency <= 0:
            raise ValueError(
                f"guarantee must be positive, got {self.insertion_latency}"
            )

    @classmethod
    def milliseconds(cls, value: float) -> "GuaranteeSpec":
        """Build a spec from a millisecond value (``GuaranteeSpec.milliseconds(5)``)."""
        return cls(insertion_latency=value / 1e3)


def shadow_capacity_for(timing: EmpiricalTimingModel, spec: GuaranteeSpec) -> int:
    """The largest shadow-table size that honours ``spec`` on this switch.

    Raises:
        ValueError: when even a single-entry shadow cannot meet the
            guarantee on this hardware (the guarantee is infeasible).
    """
    capacity = timing.max_occupancy_for_guarantee(spec.insertion_latency)
    if capacity < 1:
        raise ValueError(
            f"{timing.name}: a {spec.insertion_latency * 1e3:.2f} ms guarantee is "
            "infeasible — even an empty-table insert exceeds the budget"
        )
    return capacity


def asic_overhead(timing: EmpiricalTimingModel, spec: GuaranteeSpec) -> float:
    """Fraction of TCAM capacity consumed by the shadow slice (Figure 14)."""
    return shadow_capacity_for(timing, spec) / timing.capacity


def max_insertion_rate(
    shadow_capacity: int,
    migration_time: float,
    expected_partitions: float = 1.0,
) -> float:
    """Equations 1 and 2: the maximum sustainable insertion arrival rate.

    Args:
        shadow_capacity: S_ST, rules the shadow table holds.
        migration_time: t_m, seconds to migrate the shadow's content to the
            main table.
        expected_partitions: r_p, mean physical fragments per logical rule
            (1.0 recovers Equation 1).

    Returns:
        lambda, rules per second.
    """
    if shadow_capacity <= 0:
        raise ValueError("shadow capacity must be positive")
    if migration_time <= 0:
        raise ValueError("migration time must be positive")
    if expected_partitions < 1.0:
        raise ValueError("expected partitions cannot be below 1")
    return shadow_capacity / (expected_partitions * migration_time)


def optimizer_seconds(rules: int, main_occupancy: int) -> float:
    """Modelled CPU seconds of the step-2 optimizer rewriting ``rules`` rules.

    The optimizer's runtime grows super-linearly in the rules it rewrites
    (Figure 15(b)).  The Rule Manager charges this to every optimized
    migration; :func:`estimate_migration_time` uses it before any migration
    has run.
    """
    return OPTIMIZER_UNIT_COST * (
        rules * max(1.0, (rules + main_occupancy) ** 0.5)
    )


def estimate_migration_time(
    timing: EmpiricalTimingModel,
    rules_to_move: int,
    main_occupancy: int,
) -> float:
    """Estimate t_m: optimizer time plus main-table write time.

    TCAM writes are charged at the main table's occupancy-dependent insert
    cost.  Used for admission-control sizing before any migration has
    actually been observed.
    """
    if rules_to_move < 0 or main_occupancy < 0:
        raise ValueError("rule counts cannot be negative")
    # Migration writes have pre-planned placements (see
    # repro.tcam.moveplan), so each write costs the empty-table insert
    # latency rather than the shifting cost.
    write_time = rules_to_move * timing.base_insertion_latency(0)
    return optimizer_seconds(rules_to_move, main_occupancy) + write_time
