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
:func:`verify_partition` and :func:`verify_installer` are the aggregate
entry points.
"""

from __future__ import annotations

from typing import List, Optional

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
from .violations import Violation


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
