"""Ruleset verifier: static analysis over TCAM table snapshots.

Hermes's correctness story rests on one invariant: the shadow+main pair,
probed shadow-first, must behave exactly like a single priority-ordered
monolithic table (Section 4 of the paper).  The code that *maintains* that
invariant — Algorithm 1 partitioning, reverse re-partitioning, Figure 6
un-partitioning, Rule Manager migrations — is spread across
:mod:`repro.core`; this module *checks* it from the outside, using nothing
but the physical table contents.  Every checker is a pure function over
rule sequences, so it can run against live tables, serialized snapshots
(:mod:`repro.analysis.snapshot`), or hand-built fixtures, and none of them
consult :class:`~repro.core.partition.PartitionMap` — a corrupted
bookkeeping structure must not be able to vouch for itself.

The decisions are made by the atomic-predicate engine in
:mod:`repro.analysis.ap`.  Checkers report structured
:class:`~repro.analysis.violations.Violation` records;
:func:`verify_partition`, :func:`verify_moveplan` and
:func:`verify_installer` are the aggregate entry points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..tcam.rule import Rule
from .ap import (
    RuleSource,
    _rules_of,
    ap_priority_inversions,
    ap_semantic_diff,
    ap_shadowed_rules,
    ap_unreachable_rules,
    build_universe,
    find_duplicate_entries,
    lookup_order,
)
from .violations import (
    MOVEPLAN_INVERSION,
    MOVEPLAN_OVERFLOW,
    MOVEPLAN_SLOT_CONFLICT,
    Violation,
)


def verify_partition(
    shadow: RuleSource,
    main: RuleSource,
    reference: Optional[RuleSource] = None,
    include_warnings: bool = False,
) -> List[Violation]:
    """Verify a shadow+main pair against the paper's correctness invariant.

    Runs the cross-table priority-inversion check and the duplicate-entry
    check; with a ``reference`` monolithic table, additionally diffs the
    pair's lookup semantics against it.  ``include_warnings`` adds the
    per-table occlusion analyses (unreachable and shadowed rules).  One
    atom universe over shadow + main (+ reference) serves every check.

    Returns the violations found, errors first; an empty list means the
    pair provably behaves like one priority-ordered table (relative to the
    checks requested).
    """
    shadow_rules = _rules_of(shadow)
    main_rules = _rules_of(main)
    reference_rules = _rules_of(reference) if reference is not None else []
    universe = build_universe(
        rule.match for rule in shadow_rules + main_rules + reference_rules
    )
    violations = ap_priority_inversions(shadow_rules, main_rules, universe)
    violations += find_duplicate_entries(shadow_rules, main_rules)
    if reference is not None:
        violations += ap_semantic_diff(
            lookup_order(shadow_rules, main_rules), reference_rules, universe
        )
    if include_warnings:
        violations += ap_unreachable_rules(shadow_rules, universe, "shadow")
        violations += ap_unreachable_rules(main_rules, universe, "main")
        violations += ap_shadowed_rules(main_rules, universe, "main")
    return sorted(violations, key=lambda v: (v.severity != "error", v.kind))


def verify_moveplan(
    plan,
    table: RuleSource,
    capacity: Optional[int] = None,
) -> List[Violation]:
    """Check that a placement plan is safe at *every* intermediate state.

    The paper's shift-safety argument (Section 6) requires more than a
    correct final layout: a batch written one entry at a time exposes every
    prefix of the plan to live lookups, so each intermediate table state
    must already preserve first-match semantics.  This checker replays the
    plan write-by-write over the resident table and reports:

    * ``moveplan-overflow`` — a slot past the table's capacity;
    * ``moveplan-slot-conflict`` — a slot colliding with a resident entry
      or with an earlier write of the same plan;
    * ``moveplan-inversion`` — an intermediate state in which a rule sits
      physically above an overlapping rule of strictly higher priority
      (first-match would answer with the wrong rule).

    Args:
        plan: a :class:`~repro.tcam.moveplan.PlacementPlan` (anything with
            aligned ``order``/``slots`` sequences works).
        table: the resident rules, in physical order (slots ``0..n-1``).
        capacity: table capacity; taken from ``table.capacity`` when the
            argument is a real table, unbounded otherwise.
    """
    order: Tuple[Rule, ...] = tuple(plan.order)
    slots: Tuple[int, ...] = tuple(plan.slots)
    if len(order) != len(slots):
        raise ValueError(
            f"plan order ({len(order)} rules) and slots ({len(slots)}) disagree"
        )
    if capacity is None:
        capacity = getattr(table, "capacity", None)
    resident = _rules_of(table)
    violations: List[Violation] = []
    occupied: Dict[int, Rule] = {index: rule for index, rule in enumerate(resident)}
    for rule, slot in zip(order, slots):
        if capacity is not None and slot >= capacity:
            violations.append(
                Violation(
                    kind=MOVEPLAN_OVERFLOW,
                    message=(
                        f"rule #{rule.rule_id} is planned into slot {slot} "
                        f"but the table holds only {capacity} entries"
                    ),
                    rule_ids=(rule.rule_id,),
                    table="moveplan",
                )
            )
            continue
        if slot in occupied:
            violations.append(
                Violation(
                    kind=MOVEPLAN_SLOT_CONFLICT,
                    message=(
                        f"rule #{rule.rule_id} is planned into slot {slot}, "
                        f"already holding rule #{occupied[slot].rule_id}"
                    ),
                    rule_ids=(rule.rule_id, occupied[slot].rule_id),
                    table="moveplan",
                )
            )
            continue
        # The write lands; check the intermediate state it creates.  Only
        # pairs involving the new rule can introduce fresh inversions.
        for other_slot, other in occupied.items():
            upper, lower = (rule, other) if slot < other_slot else (other, rule)
            if lower.priority > upper.priority and upper.overlaps(lower):
                overlap = upper.match.intersect(lower.match)
                violations.append(
                    Violation(
                        kind=MOVEPLAN_INVERSION,
                        message=(
                            f"after writing rule #{rule.rule_id} into slot "
                            f"{slot}, rule #{upper.rule_id} (prio "
                            f"{upper.priority}) sits above overlapping rule "
                            f"#{lower.rule_id} (prio {lower.priority})"
                        ),
                        rule_ids=(upper.rule_id, lower.rule_id),
                        table="moveplan",
                        witness=overlap.value if overlap is not None else None,
                    )
                )
        occupied[slot] = rule
    return violations


def verify_installer(installer, include_warnings: bool = False) -> List[Violation]:
    """Verify any :class:`~repro.switchsim.installer.RuleInstaller`.

    Uses the installer's ``tables()`` introspection seam: two-slice schemes
    (Hermes) get the full pair verification, monolithic schemes get the
    duplicate check only (a single table cannot invert against itself).
    """
    tables = installer.tables()
    shadow = tables.get("shadow", ())
    main = tables.get("main", tables.get("monolithic", ()))
    return verify_partition(shadow, main, include_warnings=include_warnings)
