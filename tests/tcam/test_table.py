"""Tests for the physical TCAM table model (ordering, shifting, latencies)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcam import (
    SWITCH_MODEL_NAMES,
    Action,
    InsertOrder,
    Rule,
    RuleNotFoundError,
    TableFullError,
    TcamTable,
    TernaryMatch,
    dell_8132f,
    get_switch_model,
    pica8_p3290,
)


@pytest.fixture
def table():
    return TcamTable(pica8_p3290(), capacity=64, name="test")


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


class TestOrdering:
    def test_entries_kept_in_descending_priority(self, table):
        table.insert(rule("10.0.0.0/8", 5))
        table.insert(rule("11.0.0.0/8", 50))
        table.insert(rule("12.0.0.0/8", 20))
        assert [r.priority for r in table.rules()] == [50, 20, 5]

    def test_equal_priority_keeps_insertion_order(self, table):
        first = rule("10.0.0.0/8", 5)
        second = rule("11.0.0.0/8", 5)
        table.insert(first)
        table.insert(second)
        assert [r.rule_id for r in table.rules()] == [first.rule_id, second.rule_id]

    def test_lookup_returns_highest_priority_match(self, table):
        low = rule("10.0.0.0/8", 5, port=1)
        high = rule("10.1.0.0/16", 50, port=2)
        table.insert(low)
        table.insert(high)
        from repro.tcam import Prefix

        hit = table.lookup(Prefix.from_string("10.1.2.3").network)
        assert hit.rule_id == high.rule_id

    def test_lookup_miss_returns_none(self, table):
        table.insert(rule("10.0.0.0/8", 5))
        from repro.tcam import Prefix

        assert table.lookup(Prefix.from_string("11.0.0.1").network) is None


class TestShifting:
    def test_append_at_bottom_has_zero_shifts(self, table):
        table.insert(rule("10.0.0.0/8", 50))
        result = table.insert(rule("11.0.0.0/8", 5))
        assert result.shifts == 0

    def test_insert_at_top_shifts_everything(self, table):
        for index in range(5):
            table.insert(rule(f"{10 + index}.0.0.0/8", 10))
        result = table.insert(rule("20.0.0.0/8", 99))
        assert result.shifts == 5
        assert result.position == 0

    def test_zero_shift_insert_is_cheaper(self, table):
        for index in range(20):
            table.insert(rule(f"{10 + index}.0.0.0/8", 50))
        shifting = table.timing.insertion_latency(20, shifts=20)
        appending = table.timing.insertion_latency(20, shifts=0)
        assert appending < shifting

    def test_latency_grows_with_occupancy(self):
        timing = pica8_p3290()
        sparse = timing.insertion_latency(50, shifts=50)
        dense = timing.insertion_latency(1000, shifts=1000)
        assert dense > sparse * 10


class TestCapacity:
    def test_full_table_rejects_insert(self):
        table = TcamTable(pica8_p3290(), capacity=2)
        table.insert(rule("10.0.0.0/8", 1))
        table.insert(rule("11.0.0.0/8", 1))
        assert table.is_full
        with pytest.raises(TableFullError):
            table.insert(rule("12.0.0.0/8", 1))

    def test_free_entries(self, table):
        assert table.free_entries == 64
        table.insert(rule("10.0.0.0/8", 1))
        assert table.free_entries == 63

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TcamTable(pica8_p3290(), capacity=0)


class TestMutations:
    def test_delete_removes_rule(self, table):
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        table.delete(r.rule_id)
        assert table.occupancy == 0
        assert r.rule_id not in table

    def test_delete_unknown_raises(self, table):
        with pytest.raises(RuleNotFoundError):
            table.delete(999999)

    def test_duplicate_insert_raises(self, table):
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        with pytest.raises(ValueError):
            table.insert(r)

    def test_delete_is_faster_than_shifting_insert(self, table):
        for index in range(30):
            table.insert(rule(f"{10 + index}.0.0.0/8", 40))
        r = rule("50.0.0.0/8", 99)
        insert_latency = table.insert(r).latency
        delete_latency = table.delete(r.rule_id).latency
        assert delete_latency < insert_latency

    def test_modify_action_in_place(self, table):
        r = rule("10.0.0.0/8", 5, port=1)
        table.insert(r)
        table.modify(r.rule_id, action=Action.output(7))
        assert table.get(r.rule_id).action.port == 7
        assert table.get(r.rule_id).priority == 5

    def test_modify_match_in_place(self, table):
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        new_match = TernaryMatch.from_string("11.0.0.0/8")
        table.modify(r.rule_id, match=new_match)
        assert table.get(r.rule_id).match == new_match

    def test_modify_has_constant_latency(self, table):
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        latency = table.modify(r.rule_id, action=Action.drop()).latency
        assert latency == pytest.approx(table.timing.modify_latency)

    def test_delete_where(self, table):
        table.insert(rule("10.0.0.0/8", 5))
        table.insert(rule("11.0.0.0/8", 6))
        table.insert(rule("12.0.0.0/8", 7))
        table.delete_where(lambda r: r.priority >= 6)
        assert table.occupancy == 1

    def test_clear_empties_table(self, table):
        for index in range(4):
            table.insert(rule(f"{10 + index}.0.0.0/8", index))
        table.clear()
        assert table.occupancy == 0


class TestStats:
    def test_stats_accumulate(self, table):
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        table.modify(r.rule_id, action=Action.drop())
        table.delete(r.rule_id)
        assert table.stats.insertions == 1
        assert table.stats.modifications == 1
        assert table.stats.deletions == 1
        assert table.stats.busy_time > 0

    def test_noise_requires_rng(self):
        noisy = TcamTable(pica8_p3290(), capacity=8, rng=np.random.default_rng(1))
        quiet = TcamTable(pica8_p3290(), capacity=8)
        noisy_latencies = set()
        for index in range(5):
            noisy_latencies.add(noisy.insert(rule(f"{10 + index}.0.0.0/8", 50)).latency)
        assert len(noisy_latencies) == 5  # lognormal noise differs per call
        first = quiet.insert(rule("10.0.0.0/8", 50)).latency
        assert first == quiet.timing.insertion_latency(0, shifts=0)


class _Recorder:
    """A table listener logging every change event in order."""

    def __init__(self):
        self.events = []

    def rule_installed(self, rule):
        self.events.append(("installed", rule.rule_id))

    def rule_removed(self, rule):
        self.events.append(("removed", rule.rule_id))


def _keyed_rules(priorities):
    return [
        Rule(TernaryMatch(index, 0xFFFFFFFF), priority, Action.output(1))
        for index, priority in enumerate(priorities)
    ]


def _snapshot(table):
    """Everything ``load`` may write, including the noise generator."""
    return (
        list(table._entries),
        list(table._keys),
        dict(table._key_of),
        dict(table._by_id),
        table._next_seq,
        copy.copy(table.stats),
        table.rng.bit_generator.state,
    )


class TestBulkLoad:
    """``load`` against the oracle of one ``insert`` per rule."""

    @staticmethod
    def twin_tables(model, capacity, seed, resident, deleted):
        """Two identical tables already holding ``resident`` minus ``deleted``."""
        tables = []
        for _ in range(2):
            table = TcamTable(
                get_switch_model(model),
                capacity=capacity,
                rng=np.random.default_rng(seed),
            )
            for rule_ in resident:
                table.insert(rule_)
            for rule_ in deleted:
                table.delete(rule_.rule_id)
            recorder = _Recorder()
            table.add_listener(recorder)
            tables.append((table, recorder))
        return tables

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(SWITCH_MODEL_NAMES),
        capacity=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from(list(InsertOrder)),
        data=st.data(),
    )
    def test_load_equals_per_rule_inserts(self, model, capacity, seed, order, data):
        priorities = st.integers(0, 6)  # a narrow band: many ties
        resident = _keyed_rules(data.draw(st.lists(priorities, max_size=capacity)))
        deleted = data.draw(st.lists(st.sampled_from(resident), unique=True)) if resident else []
        free = capacity - len(resident) + len(deleted)
        size = free if data.draw(st.booleans()) else data.draw(st.integers(0, free))
        batch = _keyed_rules(data.draw(st.lists(priorities, min_size=size, max_size=size)))
        (oracle, heard), (subject, told) = self.twin_tables(
            model, capacity, seed, resident, deleted
        )
        for rule_ in batch:
            oracle.insert(rule_, order=order)
        subject.load(batch, order=order)
        assert subject._entries == oracle._entries
        assert subject._keys == oracle._keys
        assert subject._key_of == oracle._key_of
        assert subject._by_id == oracle._by_id
        assert subject._next_seq == oracle._next_seq
        assert subject.stats == oracle.stats  # busy_time compared with ==
        assert told.events == heard.events
        assert subject.rng.random() == oracle.rng.random()

    def test_load_past_the_last_measured_point(self):
        # Dell's curve ends at 750 entries; a full load extrapolates past it.
        rules = _keyed_rules([index % 80 for index in range(dell_8132f().capacity)])
        oracle, subject = (
            TcamTable(dell_8132f(), rng=np.random.default_rng(7)) for _ in range(2)
        )
        for rule_ in rules:
            oracle.insert(rule_)
        subject.load(rules)
        assert subject.stats == oracle.stats
        assert subject._keys == oracle._keys
        assert subject.rng.random() == oracle.rng.random()

    @pytest.mark.parametrize("model", SWITCH_MODEL_NAMES)
    def test_bad_loads_leave_the_table_unchanged(self, model):
        resident = _keyed_rules([3, 1, 3])
        (table, told), _ = self.twin_tables(model, 5, 1, resident, [])
        before = _snapshot(table)
        fresh = _keyed_rules([2, 2, 2])
        with pytest.raises(TableFullError):
            table.load(fresh)
        with pytest.raises(ValueError):
            table.load([fresh[0], resident[1]])
        with pytest.raises(ValueError):
            table.load([fresh[0], fresh[0]])
        assert _snapshot(table) == before
        assert told.events == []
