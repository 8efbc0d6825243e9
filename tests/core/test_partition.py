"""Tests for Algorithm 1 (rule partitioning) and the mapping set M."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    PartitionMap,
    detect_overlaps,
    eliminate_overlap,
    merge_matches,
    partition_new_rule,
)
from repro.tcam import Action, Prefix, Rule, TernaryMatch


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def covered_keys(matches, width=8):
    keys = set()
    for match in matches:
        keys |= {k for k in range(1 << width) if match.matches(k)}
    return keys


class TestDetectOverlaps:
    def test_only_higher_priority_counts(self):
        new = rule("10.0.0.0/8", 50)
        main = [rule("10.0.0.0/16", 10), rule("10.1.0.0/16", 90)]
        blockers = detect_overlaps(new, main)
        assert [b.priority for b in blockers] == [90]

    def test_equal_priority_is_not_a_blocker(self):
        new = rule("10.0.0.0/8", 50)
        assert detect_overlaps(new, [rule("10.0.0.0/16", 50)]) == []

    def test_disjoint_rules_ignored(self):
        new = rule("10.0.0.0/8", 50)
        assert detect_overlaps(new, [rule("11.0.0.0/8", 99)]) == []


class TestPartitionNewRule:
    def test_no_overlap_returns_rule_unchanged(self):
        new = rule("10.0.0.0/8", 50)
        outcome = partition_new_rule(new, [rule("11.0.0.0/8", 99)])
        assert outcome.fragments == [new]
        assert not outcome.was_partitioned

    def test_figure5a_subsumed_rule_is_ignored(self):
        # Main holds a larger, higher-priority rule wholly covering the new
        # rule: the new rule could never match and must not be installed.
        new = rule("10.1.0.0/16", 10)
        outcome = partition_new_rule(new, [rule("10.0.0.0/8", 99)])
        assert outcome.subsumed
        assert outcome.fragments == []

    def test_figure5b_subsuming_rule_is_cut_around_hole(self):
        # The new rule contains a smaller higher-priority main rule: the new
        # rule is partitioned so packets of the hole still hit the main table.
        new = rule("192.168.1.0/24", 10, port=2)
        blocker = rule("192.168.1.0/26", 99, port=1)
        outcome = partition_new_rule(new, [blocker])
        fragment_prefixes = sorted(
            str(fragment.match.to_prefix()) for fragment in outcome.fragments
        )
        assert fragment_prefixes == ["192.168.1.128/25", "192.168.1.64/26"]
        for fragment in outcome.fragments:
            assert not fragment.match.overlaps(blocker.match)
            assert fragment.priority == new.priority
            assert fragment.action == new.action
            assert fragment.origin_id == new.rule_id

    def test_figure4_scenario_correctness(self):
        # The motivating example: /24 -> port 2 (low prio) arrives while
        # /26 -> port 1 (high prio) sits in the main table.
        blocker = rule("192.168.1.0/26", 99, port=1)
        new = rule("192.168.1.0/24", 10, port=2)
        outcome = partition_new_rule(new, [blocker])
        probe = Prefix.from_string("192.168.1.5").network
        # No fragment may capture 192.168.1.5 — it belongs to the main rule.
        assert not any(f.match.matches(probe) for f in outcome.fragments)

    def test_multiple_blockers_cut_iteratively(self):
        new = rule("10.0.0.0/8", 10)
        blockers = [rule("10.0.0.0/10", 99), rule("10.192.0.0/10", 88)]
        outcome = partition_new_rule(new, blockers)
        assert outcome.cuts == 2
        for fragment in outcome.fragments:
            for blocker in blockers:
                assert not fragment.match.overlaps(blocker.match)

    def test_joint_subsumption_by_several_blockers(self):
        new = rule("10.0.0.0/9", 10)
        halves = [rule("10.0.0.0/10", 99), rule("10.64.0.0/10", 98)]
        outcome = partition_new_rule(new, halves)
        assert outcome.subsumed
        assert outcome.fragments == []

    def test_blocker_ids_recorded(self):
        blocker = rule("10.0.0.0/16", 99)
        outcome = partition_new_rule(rule("10.0.0.0/8", 10), [blocker])
        assert outcome.blockers == frozenset({blocker.rule_id})

    def test_fragments_cover_exactly_rule_minus_blockers(self):
        new = rule("10.0.0.0/8", 10)
        blockers = [rule("10.16.0.0/12", 99), rule("10.128.0.0/9", 88)]
        outcome = partition_new_rule(new, blockers)
        fragment_prefixes = [f.match.to_prefix() for f in outcome.fragments]
        blocker_prefixes = [b.match.to_prefix() for b in blockers]
        from repro.tcam import covers_same_addresses

        # The blockers lie inside the new rule, so the fragments are its
        # complement exactly when they miss every blocker and, with them,
        # cover the rule.
        assert not any(
            fragment.overlaps(blocker)
            for fragment in fragment_prefixes
            for blocker in blocker_prefixes
        )
        assert covers_same_addresses(
            fragment_prefixes + blocker_prefixes, [new.match.to_prefix()]
        )


class TestMergeMatches:
    def test_prefix_fragments_merge_optimally(self):
        fragments = [
            TernaryMatch.from_string("10.0.0.0/9"),
            TernaryMatch.from_string("10.128.0.0/9"),
        ]
        merged = merge_matches(fragments)
        assert merged == [TernaryMatch.from_string("10.0.0.0/8")]

    def test_general_ternary_dedup_and_containment(self):
        wide = TernaryMatch.from_string("1***")
        narrow = TernaryMatch.from_string("10*1")
        assert merge_matches([wide, narrow, wide]) == [wide]

    def test_empty(self):
        assert merge_matches([]) == []


class TestEliminateOverlap:
    def test_cuts_every_match(self):
        matches = [TernaryMatch.from_string("10**"), TernaryMatch.from_string("11**")]
        blocker = TernaryMatch.from_string("1*1*")
        survivors = eliminate_overlap(matches, blocker)
        for survivor in survivors:
            assert not survivor.overlaps(blocker)
        assert covered_keys(survivors, width=4) == covered_keys(
            matches, width=4
        ) - covered_keys([blocker], width=4)


class TestPartitionMap:
    def make_partitioned(self):
        pmap = PartitionMap()
        blocker = rule("10.0.0.0/16", 99)
        original = rule("10.0.0.0/8", 10)
        outcome = partition_new_rule(original, [blocker])
        pmap.record(original, outcome)
        return pmap, original, blocker, outcome

    def test_record_and_query(self):
        pmap, original, _, outcome = self.make_partitioned()
        assert pmap.is_partitioned(original.rule_id)
        assert pmap.original(original.rule_id) == original
        assert pmap.fragment_ids(original.rule_id) == {
            f.rule_id for f in outcome.fragments
        }

    def test_unpartitioned_rule_not_recorded(self):
        pmap = PartitionMap()
        original = rule("10.0.0.0/8", 10)
        outcome = partition_new_rule(original, [])
        pmap.record(original, outcome)
        assert not pmap.is_partitioned(original.rule_id)
        assert len(pmap) == 0

    def test_forget_blocker_returns_originals(self):
        pmap, original, blocker, _ = self.make_partitioned()
        restored = pmap.forget_blocker(blocker.rule_id)
        assert restored == [original]
        assert not pmap.is_partitioned(original.rule_id)

    def test_forget_blocker_unknown_id_is_empty(self):
        pmap, *_ = self.make_partitioned()
        assert pmap.forget_blocker(999999) == []

    def test_forget_origin_clears_blocker_link(self):
        pmap, original, blocker, _ = self.make_partitioned()
        pmap.forget(original.rule_id)
        assert pmap.forget_blocker(blocker.rule_id) == []

    def test_subsumed_rule_tracked_for_restoration(self):
        pmap = PartitionMap()
        blocker = rule("10.0.0.0/8", 99)
        original = rule("10.1.0.0/16", 10)
        outcome = partition_new_rule(original, [blocker])
        assert outcome.subsumed
        pmap.record(original, outcome)
        assert pmap.is_partitioned(original.rule_id)
        assert pmap.fragment_ids(original.rule_id) == set()
        assert pmap.forget_blocker(blocker.rule_id) == [original]

    def test_expected_partitions(self):
        pmap, *_ = self.make_partitioned()
        assert pmap.expected_partitions() >= 1.0
        assert PartitionMap().expected_partitions() == 1.0

    def test_update_original(self):
        pmap, original, _, _ = self.make_partitioned()
        refreshed = Rule(
            match=original.match,
            priority=original.priority,
            action=Action.drop(),
            rule_id=original.rule_id,
        )
        pmap.update_original(original.rule_id, refreshed)
        assert pmap.original(original.rule_id).action == Action.drop()
        with pytest.raises(KeyError):
            pmap.update_original(424242, refreshed)

    def test_replace_fragments(self):
        pmap, original, _, _ = self.make_partitioned()
        pmap.replace_fragments(original.rule_id, [1, 2, 3])
        assert pmap.fragment_ids(original.rule_id) == {1, 2, 3}


@st.composite
def small_prefixes(draw):
    """Prefixes inside 10.0.0.0/8 with lengths 8-16 (high overlap chance)."""
    length = draw(st.integers(min_value=8, max_value=16))
    bits = draw(st.integers(min_value=0, max_value=(1 << (length - 8)) - 1))
    network = (10 << 24) | (bits << (32 - length))
    return Prefix(network, length)


class TestPartitionIdempotence:
    @given(
        st.lists(
            st.tuples(small_prefixes(), st.integers(min_value=50, max_value=100)),
            min_size=1,
            max_size=6,
        ),
        small_prefixes(),
    )
    def test_fragments_are_stable_under_repartition(self, blocker_specs, new_prefix):
        """Re-partitioning a fragment against the same blockers is a no-op:
        Algorithm 1's output contains no residual overlap."""
        blockers = [
            Rule.from_prefix(prefix, priority, Action.output(1))
            for prefix, priority in blocker_specs
        ]
        new = Rule.from_prefix(new_prefix, 10, Action.output(2))
        outcome = partition_new_rule(new, blockers)
        for fragment in outcome.fragments:
            again = partition_new_rule(fragment, blockers)
            assert not again.was_partitioned
            assert again.fragments == [fragment]


class TestPartitionProperties:
    @given(
        st.lists(
            st.tuples(small_prefixes(), st.integers(min_value=1, max_value=100)),
            min_size=1,
            max_size=8,
        ),
        small_prefixes(),
        st.integers(min_value=1, max_value=100),
    )
    def test_partition_preserves_monolithic_semantics(
        self, main_specs, new_prefix, new_priority
    ):
        """For any main table and new rule: probing (shadow fragments first,
        then main) gives the same action as a monolithic table would."""
        main_rules = [
            Rule.from_prefix(prefix, priority, Action.output(10 + index))
            for index, (prefix, priority) in enumerate(main_specs)
        ]
        new = Rule.from_prefix(new_prefix, new_priority, Action.output(2))
        outcome = partition_new_rule(new, main_rules)

        def monolithic(key):
            candidates = [
                r for r in main_rules + [new] if r.match.matches(key)
            ]
            if not candidates:
                return None
            best = max(candidates, key=lambda r: (r.priority, -r.rule_id))
            return best.action

        def hermes(key):
            for fragment in outcome.fragments:
                if fragment.match.matches(key):
                    return fragment.action
            candidates = [r for r in main_rules if r.match.matches(key)]
            if not candidates:
                return None
            best = max(candidates, key=lambda r: (r.priority, -r.rule_id))
            return best.action

        probes = {new.match.to_prefix().first_address}
        probes.add(new.match.to_prefix().last_address)
        for resident in main_rules:
            prefix = resident.match.to_prefix()
            probes |= {prefix.first_address, prefix.last_address}
        for fragment in outcome.fragments:
            prefix = fragment.match.to_prefix()
            probes |= {prefix.first_address, prefix.last_address}
        for key in probes:
            mono = monolithic(key)
            herm = hermes(key)
            # Ties between equal-priority overlapping rules are
            # implementation-defined in a TCAM; skip those probes.
            contenders = [
                r.priority for r in main_rules + [new] if r.match.matches(key)
            ]
            if len([p for p in contenders if p == max(contenders, default=0)]) > 1:
                continue
            assert mono == herm, f"key {key}: monolithic={mono} hermes={herm}"
