"""Symbolic ruleset checkers: the test oracle for the shipped verifier.

:func:`repro.analysis.verifier.verify_partition` decides everything with
the atomic-predicate engine (:mod:`repro.analysis.ap`).  This module decides
the same questions a second, independent way: region decomposition with the
ternary subtract/intersect algebra, the same primitives Algorithm 1 itself
uses.  It is exact but quadratic-ish in rule count, so it lives in the test
suite, where the hypothesis differential suite (``test_ap.py``), the
canned-scenario differential (``test_snapshot_cli.py``), the hand-built
mutation cases (``test_verifier.py``) and the verifier benchmark hold the
two engines to the same findings.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.ap import (
    RuleSource,
    _rules_of,
    find_duplicate_entries,
    lookup_order,
)
from repro.analysis.violations import (
    EQUIVALENCE_MISMATCH,
    PRIORITY_INVERSION,
    SHADOWED_RULE,
    UNREACHABLE_RULE,
    Violation,
)
from repro.tcam.rule import Rule
from repro.tcam.ternary import TernaryMatch


def _subtract_all(
    fragments: List[TernaryMatch], cut: TernaryMatch
) -> List[TernaryMatch]:
    """Subtract ``cut`` from every fragment, dropping emptied ones."""
    survivors: List[TernaryMatch] = []
    for fragment in fragments:
        survivors.extend(fragment.subtract(cut))
    return survivors


def _effective_region(
    match: TernaryMatch, predecessors: Sequence[TernaryMatch]
) -> List[TernaryMatch]:
    """The part of ``match`` not covered by any predecessor (may be empty)."""
    regions = [match]
    for predecessor in predecessors:
        regions = _subtract_all(regions, predecessor)
        if not regions:
            break
    return regions


# ---------------------------------------------------------------------------
# Cross-table check
# ---------------------------------------------------------------------------
def find_priority_inversions(shadow: RuleSource, main: RuleSource) -> List[Violation]:
    """The Algorithm 1 invariant, checked wholesale.

    A main-table rule that overlaps a shadow resident at strictly higher
    priority is masked by the hardware's shadow-first lookup over the
    overlap region — the pair stops behaving like one table (Figure 4(b)).
    Checked pairwise and independently of any partitioner bookkeeping.
    """
    violations: List[Violation] = []
    shadow_rules = _rules_of(shadow)
    for main_rule in _rules_of(main):
        for shadow_rule in shadow_rules:
            if main_rule.priority > shadow_rule.priority and main_rule.overlaps(
                shadow_rule
            ):
                overlap = main_rule.match.intersect(shadow_rule.match)
                violations.append(
                    Violation(
                        kind=PRIORITY_INVERSION,
                        message=(
                            f"main rule #{main_rule.rule_id} "
                            f"(prio {main_rule.priority}) is masked by shadow "
                            f"rule #{shadow_rule.rule_id} "
                            f"(prio {shadow_rule.priority}) over {overlap}"
                        ),
                        rule_ids=(main_rule.rule_id, shadow_rule.rule_id),
                        table="shadow+main",
                        witness=overlap.value if overlap is not None else None,
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Single-table occlusion analysis
# ---------------------------------------------------------------------------
def find_unreachable_rules(table: RuleSource, name: str = "table") -> List[Violation]:
    """Rules wholly covered by the entries physically above them.

    An unreachable rule can never win a lookup: it wastes an entry and
    usually marks an upstream bug (a partitioner that failed to subsume, a
    migration that re-wrote a rule below its own blocker).  Forwarding is
    unaffected, so this is a warning, not an error.
    """
    violations: List[Violation] = []
    rules = _rules_of(table)
    for index, rule in enumerate(rules):
        predecessors = [prior.match for prior in rules[:index]]
        if not _effective_region(rule.match, predecessors):
            violations.append(
                Violation(
                    kind=UNREACHABLE_RULE,
                    message=(
                        f"rule #{rule.rule_id} ({rule.match}, prio "
                        f"{rule.priority}) is wholly covered by the "
                        f"{index} entries above it and can never match"
                    ),
                    rule_ids=(rule.rule_id,),
                    table=name,
                )
            )
    return violations


def find_shadowed_rules(table: RuleSource, name: str = "table") -> List[Violation]:
    """Rules partially occluded by an earlier overlapping rule whose action
    differs.

    Partial occlusion is what priorities are *for*, so this is purely
    informational — useful when auditing an operator-supplied ruleset for
    surprising interactions, too noisy to enforce on partitioned tables.
    """
    violations: List[Violation] = []
    rules = _rules_of(table)
    for index, rule in enumerate(rules):
        for prior in rules[:index]:
            if (
                prior.action != rule.action
                and prior.overlaps(rule)
                and not prior.match.contains(rule.match)
            ):
                violations.append(
                    Violation(
                        kind=SHADOWED_RULE,
                        message=(
                            f"rule #{rule.rule_id} loses part of {rule.match} "
                            f"to rule #{prior.rule_id} ({prior.action} vs "
                            f"{rule.action})"
                        ),
                        rule_ids=(rule.rule_id, prior.rule_id),
                        table=name,
                    )
                )
                break  # one report per occluded rule is enough
    return violations


# ---------------------------------------------------------------------------
# Semantic equivalence
# ---------------------------------------------------------------------------
def semantic_diff(
    system: RuleSource,
    reference: RuleSource,
    system_name: str = "shadow+main",
    reference_name: str = "reference",
) -> List[Violation]:
    """Exact semantic diff of two first-match rule lists.

    Finds every maximal region of key space on which the two tables decide
    differently — a different action, or a hit on one side and a miss on
    the other — and reports one witness key per differing rule pair.  The
    check is complete (no sampling): regions are computed symbolically with
    the ternary subtract/intersect algebra, the same primitives Algorithm 1
    itself uses, so a disagreement on even a single key is found.
    """
    violations: List[Violation] = []
    system_rules = _rules_of(system)
    reference_rules = _rules_of(reference)
    reported: set = set()

    def report(piece: TernaryMatch, winner: Rule, other: Optional[Rule]) -> None:
        pair = (winner.rule_id, None if other is None else other.rule_id)
        if pair in reported:
            return
        reported.add(pair)
        if other is None:
            detail = f"{reference_name} matches nothing there"
        else:
            detail = (
                f"{reference_name} answers with rule #{other.rule_id} "
                f"({other.action})"
            )
        violations.append(
            Violation(
                kind=EQUIVALENCE_MISMATCH,
                message=(
                    f"key {piece.value:#x}: {system_name} answers with rule "
                    f"#{winner.rule_id} ({winner.action}) but {detail}"
                ),
                rule_ids=(winner.rule_id,)
                + (() if other is None else (other.rule_id,)),
                table=f"{system_name} vs {reference_name}",
                witness=piece.value,
            )
        )

    # Forward direction: walk every region the system decides and check the
    # reference decides it identically.
    for index, rule in enumerate(system_rules):
        fragments = _effective_region(
            rule.match, [prior.match for prior in system_rules[:index]]
        )
        for other in reference_rules:
            if not fragments:
                break
            pieces = [
                piece
                for fragment in fragments
                for piece in (fragment.intersect(other.match),)
                if piece is not None
            ]
            if pieces and other.action != rule.action:
                report(pieces[0], rule, other)
            if pieces:
                fragments = _subtract_all(fragments, other.match)
        for fragment in fragments:
            # The system hits here but the reference falls through.
            report(fragment, rule, None)
            break

    # Reverse direction: regions the reference decides but the system never
    # covers (action mismatches on jointly covered keys were caught above).
    system_matches = [rule.match for rule in system_rules]
    for index, other in enumerate(reference_rules):
        fragments = _effective_region(
            other.match, [prior.match for prior in reference_rules[:index]]
        )
        uncovered = fragments
        for match in system_matches:
            if not uncovered:
                break
            uncovered = _subtract_all(uncovered, match)
        for fragment in uncovered:
            pair = (None, other.rule_id)
            if pair in reported:
                break
            reported.add(pair)
            violations.append(
                Violation(
                    kind=EQUIVALENCE_MISMATCH,
                    message=(
                        f"key {fragment.value:#x}: {reference_name} answers "
                        f"with rule #{other.rule_id} ({other.action}) but "
                        f"{system_name} matches nothing there"
                    ),
                    rule_ids=(other.rule_id,),
                    table=f"{system_name} vs {reference_name}",
                    witness=fragment.value,
                )
            )
            break
    return violations


# ---------------------------------------------------------------------------
# Aggregate entry point and engine agreement
# ---------------------------------------------------------------------------
def symbolic_verify_partition(
    shadow: RuleSource,
    main: RuleSource,
    reference: Optional[RuleSource] = None,
    include_warnings: bool = False,
) -> List[Violation]:
    """:func:`~repro.analysis.verifier.verify_partition`, decided symbolically.

    Same checks, same violation kinds and rule ids, same sort order; only
    witness keys may name a different (equally valid) point of the same
    disagreement region.
    """
    violations = find_priority_inversions(shadow, main)
    violations += find_duplicate_entries(shadow, main)
    if reference is not None:
        violations += semantic_diff(lookup_order(shadow, main), reference)
    if include_warnings:
        violations += find_unreachable_rules(shadow, "shadow")
        violations += find_unreachable_rules(main, "main")
        violations += find_shadowed_rules(main, "main")
    return sorted(violations, key=lambda v: (v.severity != "error", v.kind))


def violation_fingerprint(violations: Iterable[Violation]) -> List[Tuple]:
    """Engine-independent shape of a violation list.

    The two engines agree on kinds, implicated rule ids, and witness
    *presence*; the concrete witness key may legitimately differ (any point
    of the disagreement region is a valid witness).
    """
    return sorted(
        (v.kind, tuple(sorted(v.rule_ids)), v.witness is not None)
        for v in violations
    )


def engines_agree(
    ap_violations: Iterable[Violation], symbolic_violations: Iterable[Violation]
) -> bool:
    """True when two engines' findings match by fingerprint — same kinds,
    same implicated rule ids, same witness presence (witness *keys* may
    differ: any key in the disagreeing atom is a valid witness)."""
    return violation_fingerprint(ap_violations) == violation_fingerprint(
        symbolic_violations
    )
