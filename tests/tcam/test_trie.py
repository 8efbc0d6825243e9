"""Tests for the rule overlap index, against a binary-trie order oracle."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rule_manager import _IndexSync
from repro.tcam import Action, Prefix, Rule, TernaryMatch
from repro.tcam.trie import PrefixRuleIndex

from .trie_oracle import TrieRuleIndex

ALL_ONES = (1 << 32) - 1


def P(text):
    return Prefix.from_string(text)


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


@st.composite
def prefixes_10slash8(draw):
    length = draw(st.integers(min_value=8, max_value=20))
    bits = draw(st.integers(min_value=0, max_value=(1 << (length - 8)) - 1))
    network = (10 << 24) | (bits << (32 - length))
    return Prefix(network, length)


class TestPrefixTrie:
    """The index answers prefix queries the way a binary prefix trie does:
    ancestors on the root path, descendants in the subtree."""

    def test_insert_and_size(self):
        index = PrefixRuleIndex()
        index.add(rule("10.0.0.0/8", 1))
        assert len(index) == 1

    def test_duplicate_id_at_same_prefix_rejected(self):
        index = PrefixRuleIndex()
        r = rule("10.0.0.0/8", 1)
        index.add(r)
        with pytest.raises(ValueError):
            index.add(replace(r, priority=2))
        assert len(index) == 1

    def test_remove_is_idempotent(self):
        index = PrefixRuleIndex()
        r = rule("10.0.0.0/8", 1)
        index.add(r)
        assert index.discard(r.rule_id)
        assert not index.discard(r.rule_id)
        assert len(index) == 0
        assert index.overlapping(rule("0.0.0.0/0", 1)) == []

    def test_overlapping_finds_ancestors_and_descendants(self):
        index = PrefixRuleIndex()
        ancestor = rule("10.0.0.0/8", 1)
        exact = rule("10.1.0.0/16", 2)
        descendant = rule("10.1.2.0/24", 3)
        sibling = rule("10.2.0.0/16", 4)
        for r in (ancestor, exact, descendant, sibling):
            index.add(r)
        found = [r.rule_id for r in index.overlapping(rule("10.1.0.0/16", 9))]
        assert found == [ancestor.rule_id, exact.rule_id, descendant.rule_id]

    def test_disjoint_prefix_finds_nothing(self):
        index = PrefixRuleIndex()
        index.add(rule("10.0.0.0/8", 1))
        assert index.overlapping(rule("11.0.0.0/8", 1)) == []

    def test_default_route_overlaps_everything(self):
        index = PrefixRuleIndex()
        rules = [rule(f"{i}.0.0.0/8", i) for i in range(1, 6)]
        for r in rules:
            index.add(r)
        found = index.overlapping(rule("0.0.0.0/0", 1))
        assert len(found) == 5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(prefixes_10slash8(), min_size=1, max_size=20), prefixes_10slash8())
    def test_overlapping_agrees_with_linear_scan(self, stored, query):
        index = PrefixRuleIndex()
        rules = []
        for priority, prefix in enumerate(stored):
            r = Rule.from_prefix(prefix, priority + 1, Action.output(1))
            index.add(r)
            rules.append(r)
        expected = {
            r.rule_id for r in rules if r.match.to_prefix().overlaps(query)
        }
        probe = Rule.from_prefix(query, 1, Action.drop())
        found = {r.rule_id for r in index.overlapping(probe)}
        assert found == expected


class TestPrefixRuleIndex:
    def test_add_discard_roundtrip(self):
        index = PrefixRuleIndex()
        r = rule("10.0.0.0/8", 1)
        index.add(r)
        assert len(index) == 1
        assert index.discard(r.rule_id)
        assert not index.discard(r.rule_id)
        assert len(index) == 0

    def test_duplicate_add_rejected(self):
        index = PrefixRuleIndex()
        r = rule("10.0.0.0/8", 1)
        index.add(r)
        with pytest.raises(ValueError):
            index.add(r)

    def test_non_prefix_rules_indexed_too(self):
        index = PrefixRuleIndex()
        ternary = Rule(
            match=TernaryMatch(value=1, mask=1, width=32),  # low bit set
            priority=9,
            action=Action.output(2),
        )
        index.add(ternary)
        probe = rule("0.0.0.0/0", 1)
        assert ternary.rule_id in {r.rule_id for r in index.overlapping(probe)}
        assert index.discard(ternary.rule_id)

    def test_blockers_filter_by_priority(self):
        index = PrefixRuleIndex()
        low = rule("10.0.0.0/8", 10)
        high = rule("10.0.0.0/16", 90)
        index.add(low)
        index.add(high)
        query = rule("10.0.0.0/12", 50)
        blockers = index.blockers_for(query)
        assert [b.rule_id for b in blockers] == [high.rule_id]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(prefixes_10slash8(), st.integers(min_value=1, max_value=99)),
            min_size=1,
            max_size=15,
        ),
        prefixes_10slash8(),
        st.integers(min_value=1, max_value=99),
    )
    def test_blockers_agree_with_detect_overlaps(self, stored, query_prefix, query_prio):
        from repro.core import detect_overlaps

        index = PrefixRuleIndex()
        rules = []
        for prefix, priority in stored:
            r = Rule.from_prefix(prefix, priority, Action.output(1))
            index.add(r)
            rules.append(r)
        query = Rule.from_prefix(query_prefix, query_prio, Action.output(2))
        expected = {r.rule_id for r in detect_overlaps(query, rules)}
        found = {r.rule_id for r in index.blockers_for(query)}
        assert found == expected


#: Addresses the churn carves its matches from; a few shared ones make
#: prefixes nest, which is where the order of ancestors and subtree counts.
BASES = [0x00000000, 0x0A000000, 0x0A0100FF, 0x0A01FF00, 0xC0A80101, ALL_ONES]


@st.composite
def churn_matches(draw):
    """A prefix match of any length /0 to /32, or a non-prefix ternary one."""
    base = draw(st.one_of(st.sampled_from(BASES), st.integers(0, ALL_ONES)))
    if draw(st.integers(0, 5)) == 0:
        mask = draw(st.integers(0, ALL_ONES))
    else:
        length = draw(st.integers(0, 32))
        mask = ALL_ONES ^ (ALL_ONES >> length)
    return TernaryMatch(base & mask, mask)


CHURN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "discard", "modify", "query"]),
        churn_matches(),
        st.integers(0, 9),
        st.integers(0, 1 << 16),
    ),
    max_size=80,
)


class TestOrderAgainstTrieOracle:
    """Under add/discard/modify churn, every query returns the oracle's
    rule ids in the oracle's order."""

    @staticmethod
    def assert_same_answers(index, oracle, query):
        assert [r.rule_id for r in index.overlapping(query)] == [
            r.rule_id for r in oracle.overlapping(query)
        ]
        assert [r.rule_id for r in index.blockers_for(query)] == [
            r.rule_id for r in oracle.blockers_for(query)
        ]
        assert index.dominates_any(query) == oracle.dominates_any(query)

    @settings(max_examples=150, deadline=None)
    @given(CHURN_OPS, st.lists(churn_matches(), min_size=1, max_size=8))
    def test_churn_matches_oracle(self, ops, final_queries):
        index, oracle = PrefixRuleIndex(), TrieRuleIndex()
        syncs = (_IndexSync(index), _IndexSync(oracle))
        live = []
        for kind, match, priority, pick in ops:
            if kind == "query" or (kind != "add" and not live):
                self.assert_same_answers(
                    index, oracle, Rule(match, priority, Action.drop())
                )
            elif kind == "add":
                added = Rule(match, priority, Action.output(1))
                for sync in syncs:
                    sync.rule_installed(added)
                live.append(added)
            elif kind == "discard":
                removed = live.pop(pick % len(live))
                for sync in syncs:
                    sync.rule_removed(removed)
                assert not index.discard(removed.rule_id)
                assert not oracle.discard(removed.rule_id)
            else:
                position = pick % len(live)
                old = live[position]
                new = replace(old, match=match, action=Action.output(pick % 4 + 1))
                for sync in syncs:
                    sync.rule_modified(old, new)
                live[position] = new
            assert len(index) == len(oracle) == len(live)
        for match in final_queries:
            for priority in (0, 5, 10):
                self.assert_same_answers(
                    index, oracle, Rule(match, priority, Action.drop())
                )
