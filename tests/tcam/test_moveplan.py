"""Tests for TCAM update planning: the shipped conflict check, and the
placement planner oracle (dependency analysis, placement) it answers to."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcam import Action, Prefix, Rule, TernaryMatch
from repro.tcam.moveplan import conflicts_with_resident
from repro.tcam.trie import PrefixRuleIndex

from .conflict_oracle import pairwise_conflicts
from .moveplan_oracle import (
    dependency_edges,
    naive_shift_count,
    plan_batch_placement,
    topological_layers,
)


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def index_of(rules):
    index = PrefixRuleIndex()
    for installed in rules:
        index.add(installed)
    return index


@st.composite
def rule_batches(draw, max_size=10):
    count = draw(st.integers(min_value=1, max_value=max_size))
    rules = []
    for index in range(count):
        length = draw(st.integers(min_value=8, max_value=16))
        bits = draw(st.integers(min_value=0, max_value=(1 << (length - 8)) - 1))
        network = (10 << 24) | (bits << (32 - length))
        priority = draw(st.integers(min_value=1, max_value=50))
        rules.append(rule(Prefix(network, length), priority))
    return rules


@st.composite
def mixed_rules(draw, max_size=10):
    """Prefix rules and general (non-prefix) 32-bit ternary rules, drawn
    from a small key region so that overlaps are common."""
    count = draw(st.integers(min_value=0, max_value=max_size))
    rules = []
    for _ in range(count):
        priority = draw(st.integers(min_value=1, max_value=12))
        if draw(st.booleans()):
            length = draw(st.integers(min_value=0, max_value=12))
            bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
            network = bits << (32 - length) if length else 0
            rules.append(rule(Prefix(network, length), priority))
        else:
            # Care bits scattered over the top 12 bits: rarely prefix-shaped.
            mask = draw(st.integers(min_value=0, max_value=(1 << 12) - 1)) << 20
            value = draw(st.integers(min_value=0, max_value=(1 << 12) - 1)) << 20
            match = TernaryMatch(value & mask, mask)
            rules.append(Rule(match, priority, Action.output(1)))
    return rules


class TestDependencyEdges:
    def test_overlapping_rules_ordered_by_priority(self):
        high = rule("10.0.0.0/16", 90)
        low = rule("10.0.0.0/8", 10)
        edges = dependency_edges([high, low])
        assert edges == [(high.rule_id, low.rule_id)]

    def test_disjoint_rules_are_independent(self):
        a = rule("10.0.0.0/8", 90)
        b = rule("11.0.0.0/8", 10)
        assert dependency_edges([a, b]) == []

    def test_equal_priority_overlap_is_independent(self):
        a = rule("10.0.0.0/8", 50)
        b = rule("10.0.0.0/16", 50)
        assert dependency_edges([a, b]) == []


class TestTopologicalLayers:
    def test_chain_produces_one_rule_per_layer(self):
        chain = [
            rule("10.0.0.0/24", 90),
            rule("10.0.0.0/16", 50),
            rule("10.0.0.0/8", 10),
        ]
        layers = topological_layers(chain)
        assert [len(layer) for layer in layers] == [1, 1, 1]
        assert layers[0][0].priority == 90

    def test_independent_rules_share_a_layer(self):
        batch = [rule(f"{10 + i}.0.0.0/8", 50) for i in range(4)]
        layers = topological_layers(batch)
        assert len(layers) == 1 and len(layers[0]) == 4

    @settings(max_examples=40, deadline=None)
    @given(rule_batches())
    def test_layers_respect_every_dependency(self, batch):
        layers = topological_layers(batch)
        layer_of = {
            rule.rule_id: index
            for index, layer in enumerate(layers)
            for rule in layer
        }
        assert len(layer_of) == len(batch)
        for above, below in dependency_edges(batch):
            assert layer_of[above] < layer_of[below]


class TestPlacement:
    def test_plan_uses_free_slots_only(self):
        resident = [rule(f"{20 + i}.0.0.0/8", 100) for i in range(3)]
        batch = [rule(f"10.{i}.0.0/16", 50) for i in range(4)]
        plan = plan_batch_placement(batch, resident, capacity=16)
        assert len(plan.order) == 4
        assert min(plan.slots) == len(resident)
        assert len(set(plan.slots)) == len(plan.slots)

    def test_plan_order_is_dependency_consistent(self):
        batch = [
            rule("10.0.0.0/8", 10),
            rule("10.0.0.0/16", 50),
            rule("10.0.0.0/24", 90),
        ]
        plan = plan_batch_placement(batch, [], capacity=8)
        priorities = [r.priority for r in plan.order]
        assert priorities == sorted(priorities, reverse=True)

    def test_overfull_batch_rejected(self):
        batch = [rule(f"10.{i}.0.0/16", 50) for i in range(4)]
        with pytest.raises(ValueError):
            plan_batch_placement(batch, [], capacity=3)

    def test_moves_avoided_counts_naive_shifts(self):
        resident = [rule(f"{20 + i}.0.0.0/8", 10) for i in range(5)]
        batch = [rule("10.0.0.0/8", 99)]  # naive: lands on top, shifts 5
        plan = plan_batch_placement(batch, resident, capacity=16)
        assert plan.moves_avoided == 5


class TestConflicts:
    def test_dominating_batch_rule_flagged(self):
        resident = [rule("10.0.0.0/8", 10)]
        batch = [rule("10.0.0.0/16", 99), rule("11.0.0.0/8", 99)]
        conflicted = conflicts_with_resident(batch, index_of(resident))
        assert [r.match for r in conflicted] == [batch[0].match]

    def test_lower_priority_batch_is_clean(self):
        resident = [rule("10.0.0.0/8", 90)]
        batch = [rule("10.0.0.0/16", 10)]
        assert conflicts_with_resident(batch, index_of(resident)) == []

    @settings(max_examples=150, deadline=None)
    @given(mixed_rules(), mixed_rules())
    def test_index_matches_pairwise_oracle(self, batch, resident):
        """Same rules, same batch order as the batch x resident scan."""
        expected = pairwise_conflicts(batch, resident)
        observed = conflicts_with_resident(batch, index_of(resident))
        assert [r.rule_id for r in observed] == [r.rule_id for r in expected]


class TestNaiveShiftCount:
    def test_bottom_appends_shift_nothing(self):
        resident = [rule(f"{20 + i}.0.0.0/8", 100) for i in range(5)]
        batch = [rule("10.0.0.0/8", 1)]
        assert naive_shift_count(batch, resident) == 0

    def test_top_insert_shifts_everything(self):
        resident = [rule(f"{20 + i}.0.0.0/8", 10) for i in range(5)]
        batch = [rule("10.0.0.0/8", 99)]
        assert naive_shift_count(batch, resident) == 5

    def test_batch_shifts_accumulate(self):
        resident = [rule(f"{20 + i}.0.0.0/8", 10) for i in range(4)]
        batch = [rule("10.0.0.0/8", 99), rule("11.0.0.0/8", 99)]
        # First insert shifts 4, second shifts 4 (the first sits above it).
        assert naive_shift_count(batch, resident) == 8

    @settings(max_examples=40, deadline=None)
    @given(rule_batches(max_size=6), rule_batches(max_size=6))
    def test_matches_table_model(self, batch, resident):
        """The analytic count equals what TcamTable actually shifts."""
        from repro.tcam import TcamTable, pica8_p3290

        table = TcamTable(pica8_p3290(), capacity=64)
        for installed in resident:
            table.insert(installed)
        expected = naive_shift_count(batch, resident)
        observed = 0
        for incoming in sorted(batch, key=lambda r: -r.priority):
            observed += table.insert(incoming).shifts
        assert observed == expected
