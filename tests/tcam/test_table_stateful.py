"""Stateful (model-based) testing of the TCAM table.

A hypothesis rule-based state machine drives random insert / delete /
modify / lookup sequences against :class:`TcamTable` while maintaining a
simple dict model, checking after every step that the physical invariants
hold: descending-priority order, id-index consistency, occupancy bounds,
and lookup agreement with the model.

The table finds slots by bisecting its sort keys.  A second model, a plain
list kept in physical order by linear walks (the table's original
algorithm), is the oracle for every returned ``position`` and ``shifts``
and for the physical order itself.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.tcam import Action, Prefix, Rule, TcamTable, pica8_p3290

CAPACITY = 24


def walk_insertion_position(physical, priority):
    """Linear reference: a new rule lands below its whole priority class."""
    for index, resident in enumerate(physical):
        if resident.priority < priority:
            return index
    return len(physical)


def walk_position_of(physical, rule_id):
    """Linear reference: the physical index of an installed rule."""
    return [resident.rule_id for resident in physical].index(rule_id)

prefix_strategy = st.builds(
    lambda bits, length: Prefix(
        ((10 << 24) | (bits << (32 - length)))
        & (((1 << length) - 1) << (32 - length)),
        length,
    ),
    bits=st.integers(min_value=0, max_value=255),
    length=st.integers(min_value=8, max_value=16),
)


class TcamTableMachine(RuleBasedStateMachine):
    """Random operation sequences against a model dict."""

    @initialize()
    def setup(self) -> None:
        self.table = TcamTable(pica8_p3290(), capacity=CAPACITY)
        self.model = {}  # rule_id -> Rule
        self.physical = []  # reference layout, maintained by linear walks

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @rule(
        prefix=prefix_strategy,
        priority=st.integers(min_value=1, max_value=60),
        port=st.integers(min_value=1, max_value=8),
    )
    def insert(self, prefix, priority, port):
        self._insert(Rule.from_prefix(prefix, priority, Action.output(port)))

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        prefix=prefix_strategy,
        port=st.integers(min_value=1, max_value=8),
    )
    def insert_into_existing_class(self, data, prefix, port):
        """Grow a run of equal priorities: the new rule goes below it."""
        priority = data.draw(
            st.sampled_from(sorted({r.priority for r in self.model.values()}))
        )
        self._insert(Rule.from_prefix(prefix, priority, Action.output(port)))

    def _insert(self, new_rule):
        if self.table.is_full:
            from repro.tcam import TableFullError

            try:
                self.table.insert(new_rule)
                raise AssertionError("full table accepted an insert")
            except TableFullError:
                return
        expected = walk_insertion_position(self.physical, new_rule.priority)
        result = self.table.insert(new_rule)
        assert result.latency > 0
        assert result.position == expected
        assert result.shifts == len(self.physical) - expected
        self.physical.insert(expected, new_rule)
        self.model[new_rule.rule_id] = new_rule

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        rule_id = data.draw(st.sampled_from(sorted(self.model)))
        self._delete(rule_id)

    def _delete(self, rule_id):
        expected = walk_position_of(self.physical, rule_id)
        result = self.table.delete(rule_id)
        assert result.position == expected
        assert result.shifts == 0
        del self.physical[expected]
        return self.model.pop(rule_id)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_then_reinsert(self, data):
        """The same rule (same id) comes back at the bottom of its class."""
        rule_id = data.draw(st.sampled_from(sorted(self.model)))
        self._insert(self._delete(rule_id))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), port=st.integers(min_value=1, max_value=8))
    def modify_action(self, data, port):
        rule_id = data.draw(st.sampled_from(sorted(self.model)))
        expected = walk_position_of(self.physical, rule_id)
        result = self.table.modify(rule_id, action=Action.output(port))
        assert result.position == expected
        assert result.shifts == 0
        old = self.model[rule_id]
        self.model[rule_id] = Rule(
            match=old.match,
            priority=old.priority,
            action=Action.output(port),
            rule_id=old.rule_id,
            origin_id=old.origin_id,
        )
        self.physical[expected] = self.model[rule_id]

    @rule(address=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def lookup(self, address):
        hit = self.table.lookup(address)
        candidates = [
            r for r in self.model.values() if r.match.matches(address)
        ]
        if not candidates:
            assert hit is None
            return
        assert hit is not None
        best_priority = max(r.priority for r in candidates)
        # Equal-priority ties are broken by physical order; the hit must at
        # least carry the winning priority.
        assert hit.priority == best_priority
        assert hit.rule_id in self.model

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def physical_order_is_descending_priority(self):
        if not hasattr(self, "table"):
            return
        priorities = [r.priority for r in self.table.rules()]
        assert priorities == sorted(priorities, reverse=True)

    @invariant()
    def physical_order_matches_reference_walks(self):
        if not hasattr(self, "table"):
            return
        assert self.table.rules() == self.physical

    @invariant()
    def occupancy_matches_model(self):
        if not hasattr(self, "table"):
            return
        assert self.table.occupancy == len(self.model)
        assert self.table.occupancy <= self.table.capacity
        for rule_id in self.model:
            assert rule_id in self.table

    @invariant()
    def stats_are_consistent(self):
        if not hasattr(self, "table"):
            return
        stats = self.table.stats
        assert stats.insertions >= len(self.model)
        assert stats.insertions - stats.deletions == len(self.model)


TestTcamTableStateful = TcamTableMachine.TestCase
TestTcamTableStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None, derandomize=True
)
