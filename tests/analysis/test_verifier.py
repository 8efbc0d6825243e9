"""Mutation self-tests for the ruleset verifier.

Each test seeds one deliberate corruption into a known-good table pair (or
a move plan, for the placement checker the test suite keeps as the
migration writer's oracle) and asserts the matching checker reports *exactly* the expected
violation kind — no more, no less.  The clean fixtures double as the
no-false-positive check the verifier's severity model promises.

The inversion, semantic-diff and occlusion cases run twice: against the
shipped :func:`verify_partition` filtered to the kind under test, and, in
an ``...Oracle`` subclass, against the symbolic oracle's checker.
"""

import pytest

from repro.analysis.ap import find_duplicate_entries, lookup_order
from repro.analysis.verifier import verify_installer, verify_partition
from repro.analysis.violations import (
    DUPLICATE_ENTRY,
    EQUIVALENCE_MISMATCH,
    PRIORITY_INVERSION,
    SHADOWED_RULE,
    UNREACHABLE_RULE,
    Violation,
)
from repro.tcam.rule import Action, Rule
from repro.tcam.ternary import TernaryMatch
from tests.analysis import symbolic_oracle as oracle
from tests.tcam.moveplan_oracle import (
    MOVEPLAN_INVERSION,
    MOVEPLAN_OVERFLOW,
    MOVEPLAN_SLOT_CONFLICT,
    PlacementPlan,
    plan_batch_placement,
    verify_moveplan,
)


def R(pattern: str, priority: int, port: int = 1, rule_id: int = 0) -> Rule:
    """A width-8 rule from a bit pattern, with an explicit id."""
    return Rule(
        match=TernaryMatch.from_string(pattern),
        priority=priority,
        action=Action.output(port),
        rule_id=rule_id,
    )


def kinds(violations):
    return [violation.kind for violation in violations]


def of_kind(kind, violations):
    return [violation for violation in violations if violation.kind == kind]


def shipped_inversions(shadow, main):
    return of_kind(PRIORITY_INVERSION, verify_partition(shadow, main))


def shipped_semantic_diff(system, reference):
    return of_kind(
        EQUIVALENCE_MISMATCH, verify_partition([], system, reference=reference)
    )


def shipped_unreachable(table):
    return of_kind(
        UNREACHABLE_RULE, verify_partition([], table, include_warnings=True)
    )


def shipped_shadowed(table):
    return of_kind(
        SHADOWED_RULE, verify_partition([], table, include_warnings=True)
    )


def clean_pair():
    """A correctly partitioned pair: shadow dominates every overlap."""
    shadow = [R("1010****", 100, port=2, rule_id=1)]
    main = [
        R("10******", 50, port=1, rule_id=2),
        R("0*******", 60, port=3, rule_id=3),
    ]
    return shadow, main


class TestPriorityInversion:
    inversions = staticmethod(shipped_inversions)

    def test_clean_pair_has_none(self):
        shadow, main = clean_pair()
        assert self.inversions(shadow, main) == []

    def test_swapped_priorities_caught(self):
        # Mutation: hoist the overlapping main rule above the shadow rule.
        shadow, main = clean_pair()
        main[0] = main[0].with_priority(150)
        violations = self.inversions(shadow, main)
        assert kinds(violations) == [PRIORITY_INVERSION]
        assert set(violations[0].rule_ids) == {1, 2}
        # The witness key really is masked: it matches both rules.
        witness = violations[0].witness
        assert shadow[0].match.matches(witness)
        assert main[0].match.matches(witness)

    def test_equal_priority_is_not_an_inversion(self):
        shadow = [R("1010****", 100, rule_id=1)]
        main = [R("10******", 100, rule_id=2)]
        assert self.inversions(shadow, main) == []

    def test_disjoint_high_priority_main_rule_is_fine(self):
        shadow = [R("1010****", 100, rule_id=1)]
        main = [R("0*******", 900, rule_id=2)]
        assert self.inversions(shadow, main) == []


class TestPriorityInversionOracle(TestPriorityInversion):
    inversions = staticmethod(oracle.find_priority_inversions)


class TestDuplicateEntries:
    def test_clean_pair_has_none(self):
        shadow, main = clean_pair()
        assert find_duplicate_entries(shadow, main) == []

    def test_rule_resident_in_both_tables_caught(self):
        # Mutation: a migration wrote the rule down without clearing the
        # shadow copy.
        shadow, main = clean_pair()
        main.append(shadow[0])
        violations = find_duplicate_entries(shadow, main)
        assert kinds(violations) == [DUPLICATE_ENTRY]
        assert violations[0].rule_ids == (1,)
        assert violations[0].table == "shadow+main"

    def test_double_entry_within_one_table_caught(self):
        shadow, main = clean_pair()
        main.append(main[0])
        violations = find_duplicate_entries(shadow, main)
        assert kinds(violations) == [DUPLICATE_ENTRY]
        assert violations[0].table == "main+main"


class TestSemanticDiff:
    semantic_diff = staticmethod(shipped_semantic_diff)

    def test_identical_tables_are_equivalent(self):
        shadow, main = clean_pair()
        system = lookup_order(shadow, main)
        assert self.semantic_diff(system, list(system)) == []

    def test_dropped_rule_caught(self):
        # Mutation: the system lost the shadow rule (a silent write
        # failure); the reference still answers with it.
        shadow, main = clean_pair()
        reference = lookup_order(shadow, main)
        violations = self.semantic_diff(lookup_order([], main), reference)
        assert kinds(violations) == [EQUIVALENCE_MISMATCH]
        # The witness key is one the dropped rule decided differently.
        witness = violations[0].witness
        assert shadow[0].match.matches(witness)

    def test_action_mutation_caught(self):
        shadow, main = clean_pair()
        reference = lookup_order(shadow, main)
        corrupted = [shadow[0]] + [
            Rule(
                match=main[0].match,
                priority=main[0].priority,
                action=Action.output(7),
                rule_id=main[0].rule_id,
            ),
            main[1],
        ]
        violations = self.semantic_diff(corrupted, reference)
        assert violations and set(kinds(violations)) == {EQUIVALENCE_MISMATCH}

    def test_extra_system_rule_caught(self):
        shadow, main = clean_pair()
        reference = lookup_order(shadow, main)
        extra = R("11******", 40, port=5, rule_id=9)
        violations = self.semantic_diff(reference + [extra], reference)
        assert kinds(violations) == [EQUIVALENCE_MISMATCH]
        assert extra.match.matches(violations[0].witness)

    def test_subsumed_rule_elision_is_equivalent(self):
        # Algorithm 1 legitimately drops rules that are dead on arrival:
        # fewer physical entries, identical semantics — must verify clean.
        reference = [
            R("1*******", 50, port=1, rule_id=1),
            R("10******", 40, port=1, rule_id=2),
        ]
        system = [reference[0]]
        assert self.semantic_diff(system, reference) == []


class TestSemanticDiffOracle(TestSemanticDiff):
    semantic_diff = staticmethod(oracle.semantic_diff)


class TestOcclusionWarnings:
    unreachable = staticmethod(shipped_unreachable)
    shadowed = staticmethod(shipped_shadowed)

    def test_unreachable_rule_flagged(self):
        table = [
            R("1*******", 50, port=1, rule_id=1),
            R("10******", 40, port=2, rule_id=2),
        ]
        violations = self.unreachable(table)
        assert kinds(violations) == [UNREACHABLE_RULE]
        assert violations[0].rule_ids == (2,)
        assert not violations[0].is_error

    def test_partially_covered_rule_is_reachable(self):
        table = [
            R("10******", 50, port=1, rule_id=1),
            R("1*******", 40, port=2, rule_id=2),
        ]
        assert self.unreachable(table) == []

    def test_shadowed_rule_flagged_only_on_action_conflict(self):
        table = [
            R("10******", 50, port=1, rule_id=1),
            R("1*******", 40, port=2, rule_id=2),
        ]
        violations = self.shadowed(table)
        assert kinds(violations) == [SHADOWED_RULE]
        same_action = [
            R("10******", 50, port=1, rule_id=1),
            R("1*******", 40, port=1, rule_id=2),
        ]
        assert self.shadowed(same_action) == []


class TestOcclusionWarningsOracle(TestOcclusionWarnings):
    unreachable = staticmethod(oracle.find_unreachable_rules)
    shadowed = staticmethod(oracle.find_shadowed_rules)


class TestVerifyPartition:
    def test_clean_pair_with_reference_verifies_clean(self):
        shadow, main = clean_pair()
        reference = lookup_order(shadow, main)
        assert verify_partition(shadow, main, reference=reference) == []

    def test_each_mutation_yields_exactly_its_kind(self):
        shadow, main = clean_pair()
        reference = lookup_order(shadow, main)

        inverted_main = [main[0].with_priority(150), main[1]]
        assert kinds(
            verify_partition(shadow, inverted_main)
        ) == [PRIORITY_INVERSION]

        assert kinds(
            verify_partition(shadow, main + [shadow[0]])
        ) == [DUPLICATE_ENTRY]

        assert kinds(
            verify_partition([], main, reference=reference)
        ) == [EQUIVALENCE_MISMATCH]

    def test_errors_sort_before_warnings(self):
        shadow = [R("1010****", 100, port=2, rule_id=1)]
        main = [
            R("10******", 150, port=1, rule_id=2),  # inversion (error)
            R("1*******", 40, port=3, rule_id=3),  # shadowed (warning)
        ]
        violations = verify_partition(shadow, main, include_warnings=True)
        severities = [violation.severity for violation in violations]
        assert severities == sorted(severities)  # "error" < "warning"
        assert violations[0].kind == PRIORITY_INVERSION


class TestVerifyMoveplan:
    def test_planned_batch_verifies_clean(self):
        resident = [R("1111****", 90, rule_id=1)]
        batch = [
            R("0000****", 30, rule_id=2),
            R("00******", 20, rule_id=3),
            R("01******", 25, rule_id=4),
        ]
        plan = plan_batch_placement(batch, resident, capacity=8)
        assert verify_moveplan(plan, resident, capacity=8) == []

    def test_reordered_plan_caught_as_inversion(self):
        # Mutation: write the dominated rule first, its dominator below it.
        low = R("1*******", 10, rule_id=1)
        high = R("11******", 20, rule_id=2)
        plan = PlacementPlan(order=(low, high), slots=(0, 1), moves_avoided=0)
        violations = verify_moveplan(plan, [], capacity=8)
        assert kinds(violations) == [MOVEPLAN_INVERSION]
        assert set(violations[0].rule_ids) == {1, 2}
        # The correct order is clean at every intermediate state.
        fixed = PlacementPlan(order=(high, low), slots=(0, 1), moves_avoided=0)
        assert verify_moveplan(fixed, [], capacity=8) == []

    def test_slot_collision_with_resident_caught(self):
        resident = [R("1111****", 90, rule_id=1)]
        intruder = R("0000****", 5, rule_id=2)
        plan = PlacementPlan(order=(intruder,), slots=(0,), moves_avoided=0)
        violations = verify_moveplan(plan, resident, capacity=8)
        assert kinds(violations) == [MOVEPLAN_SLOT_CONFLICT]
        assert set(violations[0].rule_ids) == {1, 2}

    def test_slot_collision_within_plan_caught(self):
        a = R("0000****", 5, rule_id=1)
        b = R("1111****", 5, rule_id=2)
        plan = PlacementPlan(order=(a, b), slots=(3, 3), moves_avoided=0)
        assert kinds(verify_moveplan(plan, [], capacity=8)) == [
            MOVEPLAN_SLOT_CONFLICT
        ]

    def test_overflow_caught(self):
        rule = R("0000****", 5, rule_id=1)
        plan = PlacementPlan(order=(rule,), slots=(8,), moves_avoided=0)
        assert kinds(verify_moveplan(plan, [], capacity=8)) == [
            MOVEPLAN_OVERFLOW
        ]

    def test_misaligned_plan_rejected(self):
        rule = R("0000****", 5, rule_id=1)
        plan = PlacementPlan(order=(rule,), slots=(0, 1), moves_avoided=0)
        with pytest.raises(ValueError):
            verify_moveplan(plan, [])


class TestViolationRecords:
    def test_severity_derived_from_kind(self):
        error = Violation(kind=PRIORITY_INVERSION, message="x")
        warning = Violation(kind=UNREACHABLE_RULE, message="x")
        assert error.is_error and error.severity == "error"
        assert not warning.is_error and warning.severity == "warning"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Violation(kind="made-up-kind", message="x")

    def test_to_dict_is_json_shaped(self):
        violation = Violation(
            kind=PRIORITY_INVERSION,
            message="masked",
            rule_ids=(1, 2),
            table="shadow+main",
            witness=0xA0,
        )
        data = violation.to_dict()
        assert data["kind"] == PRIORITY_INVERSION
        assert data["severity"] == "error"
        assert data["rule_ids"] == [1, 2]
        assert data["witness"] == 0xA0


class TestVerifyInstaller:
    def test_hermes_installer_verifies_clean_under_churn(self):
        from repro.core import HermesConfig, HermesInstaller
        from repro.switchsim import FlowMod
        from repro.tcam import dell_8132f

        hermes = HermesInstaller(
            dell_8132f(),
            config=HermesConfig(
                shadow_capacity=16, admission_control=False, epoch=0.01
            ),
        )
        now = 0.0
        for step in range(40):
            now += 0.005
            hermes.advance_time(now)
            hermes.apply(
                FlowMod.add(
                    Rule.from_prefix(
                        f"10.{step}.0.0/16", step + 1, Action.output(1)
                    )
                )
            )
        assert sorted(hermes.tables()) == ["main", "shadow"]
        assert verify_installer(hermes) == []
        assert hermes.verify() == []

    def test_monolithic_installer_uses_fallback_slice(self):
        from repro.switchsim import DirectInstaller, FlowMod
        from repro.tcam import pica8_p3290

        direct = DirectInstaller(pica8_p3290())
        direct.apply(
            FlowMod.add(Rule.from_prefix("10.0.0.0/8", 5, Action.output(1)))
        )
        assert list(direct.tables()) == ["monolithic"]
        assert verify_installer(direct) == []
