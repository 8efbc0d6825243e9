"""Atomic-predicate engine tests: exactness, painting, and the hypothesis
differential suite pinning the shipped verifier to the symbolic oracle
(``tests/analysis/symbolic_oracle.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ap import (
    _contiguous_interval,
    atoms_intersect,
    atoms_subset,
    build_universe,
    first_common_atom,
    first_match_winners,
)
from repro.analysis.verifier import verify_partition
from repro.tcam.rule import Action, Rule
from repro.tcam.ternary import TernaryMatch
from tests.analysis.symbolic_oracle import (
    engines_agree,
    symbolic_verify_partition,
    violation_fingerprint,
)

WIDTH = 8
ALL_KEYS = range(1 << WIDTH)


def R(pattern: str, priority: int, port: int = 1, rule_id: int = 0) -> Rule:
    """A width-8 rule from a bit pattern, with an explicit id."""
    return Rule(
        match=TernaryMatch.from_string(pattern),
        priority=priority,
        action=Action.output(port),
        rule_id=rule_id,
    )


def brute_force_atoms(universe, match):
    """The atom ids a match covers, derived key-by-key."""
    return sorted({universe.atom_of_key(key) for key in ALL_KEYS if match.matches(key)})


PREFIX_PATTERNS = ["10******", "1010****", "0*******", "11111111", "********"]
CUBE_PATTERNS = ["1*1*****", "*0*0****", "1010****", "****1***"]


class TestUniverses:
    def test_prefix_shaped_matches_get_the_interval_backend(self):
        universe = build_universe(
            TernaryMatch.from_string(p) for p in PREFIX_PATTERNS
        )
        assert universe.backend == "interval"

    def test_general_ternary_matches_get_the_cube_backend(self):
        universe = build_universe(
            TernaryMatch.from_string(p) for p in CUBE_PATTERNS
        )
        assert universe.backend == "cube"

    def test_mixed_widths_rejected(self):
        narrow = TernaryMatch.from_string("10******")
        wide = TernaryMatch(value=0x0A000000, mask=0xFF000000, width=32)
        with pytest.raises(ValueError):
            build_universe([narrow, wide])

    @pytest.mark.parametrize("patterns", [PREFIX_PATTERNS, CUBE_PATTERNS])
    def test_atoms_of_is_exact(self, patterns):
        matches = [TernaryMatch.from_string(p) for p in patterns]
        universe = build_universe(matches)
        for match in matches:
            assert sorted(universe.atoms_of(match)) == brute_force_atoms(
                universe, match
            )

    @pytest.mark.parametrize("patterns", [PREFIX_PATTERNS, CUBE_PATTERNS])
    def test_atoms_partition_the_key_space(self, patterns):
        universe = build_universe(TernaryMatch.from_string(p) for p in patterns)
        seen = {universe.atom_of_key(key) for key in ALL_KEYS}
        assert seen == set(range(universe.atom_count))

    @pytest.mark.parametrize("patterns", [PREFIX_PATTERNS, CUBE_PATTERNS])
    def test_witness_lies_inside_its_atom(self, patterns):
        universe = build_universe(TernaryMatch.from_string(p) for p in patterns)
        for atom_id in range(universe.atom_count):
            assert universe.atom_of_key(universe.witness(atom_id)) == atom_id

    def test_contiguous_interval_accepts_any_width(self):
        assert _contiguous_interval(TernaryMatch.from_string("10******")) == (
            0b10000000,
            0b11000000,
        )
        assert _contiguous_interval(TernaryMatch.from_string("1*1*****")) is None


class TestAtomAlgebra:
    def test_range_backend_operations(self):
        assert atoms_intersect(range(0, 4), range(3, 8))
        assert not atoms_intersect(range(0, 3), range(3, 8))
        assert first_common_atom(range(0, 4), range(2, 8)) == 2
        assert atoms_subset(range(2, 4), range(0, 8))
        assert not atoms_subset(range(2, 9), range(0, 8))
        assert atoms_subset(range(3, 3), range(5, 5))  # empty is subset

    def test_tuple_backend_operations(self):
        assert first_common_atom((0, 4, 9), (1, 4, 7)) == 4
        assert first_common_atom((0, 2), (1, 3)) is None
        assert atoms_intersect((0, 4, 9), (9,))
        assert atoms_subset((1, 3), (0, 1, 2, 3))
        assert not atoms_subset((1, 5), (0, 1, 2, 3))


class TestFirstMatchPainting:
    @pytest.mark.parametrize("patterns", [PREFIX_PATTERNS, CUBE_PATTERNS])
    def test_painting_matches_per_key_first_match(self, patterns):
        rules = [
            R(pattern, 100 - index, rule_id=index + 1)
            for index, pattern in enumerate(patterns)
        ]
        universe = build_universe(rule.match for rule in rules)
        winner, claimed = first_match_winners(rules, universe)
        expected_claimed = [False] * len(rules)
        for key in ALL_KEYS:
            first = next(
                (i for i, rule in enumerate(rules) if rule.match.matches(key)),
                None,
            )
            assert winner[universe.atom_of_key(key)] == first
            if first is not None:
                expected_claimed[first] = True
        assert claimed == expected_claimed


# ---------------------------------------------------------------------------
# Differential suite: the shipped verifier must agree with the oracle.
# ---------------------------------------------------------------------------
def bit_pattern():
    return st.text(alphabet="01*", min_size=WIDTH, max_size=WIDTH)


def width8_rules(max_size):
    return st.lists(
        st.tuples(bit_pattern(), st.integers(min_value=1, max_value=200)),
        max_size=max_size,
    )


def prefix32_match():
    return st.integers(min_value=0, max_value=12).flatmap(
        lambda length: st.builds(
            lambda network: TernaryMatch(
                value=network << (32 - length),
                mask=((1 << length) - 1) << (32 - length) if length else 0,
                width=32,
            ),
            st.integers(min_value=0, max_value=(1 << length) - 1 if length else 0),
        )
    )


def width32_rules(max_size):
    return st.lists(
        st.tuples(prefix32_match(), st.integers(min_value=1, max_value=200)),
        max_size=max_size,
    )


def assert_engines_agree(shadow, main):
    ap = verify_partition(shadow, main, include_warnings=True)
    symbolic = symbolic_verify_partition(shadow, main, include_warnings=True)
    assert engines_agree(ap, symbolic), (
        f"AP={violation_fingerprint(ap)}\nSYM={violation_fingerprint(symbolic)}"
    )


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(shadow=width8_rules(6), main=width8_rules(10))
    def test_general_ternary_tables(self, shadow, main):
        shadow_rules = [
            R(p, prio, port=1 + i % 3, rule_id=i + 1)
            for i, (p, prio) in enumerate(shadow)
        ]
        offset = len(shadow_rules)
        main_rules = [
            R(p, prio, port=1 + i % 3, rule_id=offset + i + 1)
            for i, (p, prio) in enumerate(main)
        ]
        assert_engines_agree(shadow_rules, main_rules)

    @settings(max_examples=60, deadline=None)
    @given(shadow=width32_rules(6), main=width32_rules(12))
    def test_prefix_tables(self, shadow, main):
        shadow_rules = [
            Rule(match=m, priority=prio, action=Action.output(1 + i % 3), rule_id=i + 1)
            for i, (m, prio) in enumerate(shadow)
        ]
        offset = len(shadow_rules)
        main_rules = [
            Rule(
                match=m,
                priority=prio,
                action=Action.output(1 + i % 3),
                rule_id=offset + i + 1,
            )
            for i, (m, prio) in enumerate(main)
        ]
        assert_engines_agree(shadow_rules, main_rules)

    @settings(max_examples=40, deadline=None)
    @given(system=width8_rules(8), reference=width8_rules(8))
    def test_semantic_diff_against_reference(self, system, reference):
        system_rules = [
            R(p, prio, port=1 + i % 3, rule_id=i + 1)
            for i, (p, prio) in enumerate(system)
        ]
        reference_rules = [
            R(p, prio, port=1 + i % 3, rule_id=100 + i)
            for i, (p, prio) in enumerate(reference)
        ]
        ap = verify_partition([], system_rules, reference=reference_rules)
        symbolic = symbolic_verify_partition(
            [], system_rules, reference=reference_rules
        )
        assert engines_agree(ap, symbolic)

    @settings(max_examples=40, deadline=None)
    @given(shadow=width8_rules(5), main=width8_rules(8))
    def test_ap_witnesses_are_concrete_counterexamples(self, shadow, main):
        shadow_rules = [
            R(p, prio, port=1, rule_id=i + 1) for i, (p, prio) in enumerate(shadow)
        ]
        offset = len(shadow_rules)
        main_rules = [
            R(p, prio, port=2, rule_id=offset + i + 1)
            for i, (p, prio) in enumerate(main)
        ]
        for violation in verify_partition(shadow_rules, main_rules):
            if violation.kind != "priority-inversion" or violation.witness is None:
                continue
            key = violation.witness
            both = [
                rule
                for rule in shadow_rules + main_rules
                if rule.rule_id in violation.rule_ids
            ]
            # The witness key must actually fall inside the overlap region.
            assert all(rule.match.matches(key) for rule in both)
