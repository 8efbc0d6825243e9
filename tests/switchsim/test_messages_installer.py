"""Tests for FlowMod messages and the naive direct installer."""

import pytest

from repro.switchsim import DirectInstaller, FlowMod, FlowModCommand
from repro.tcam import Action, Prefix, Rule, TernaryMatch, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


class TestFlowModValidation:
    def test_add_requires_rule(self):
        with pytest.raises(ValueError):
            FlowMod(FlowModCommand.ADD)

    def test_delete_requires_rule_id(self):
        with pytest.raises(ValueError):
            FlowMod(FlowModCommand.DELETE)

    def test_modify_must_change_something(self):
        with pytest.raises(ValueError):
            FlowMod(FlowModCommand.MODIFY, rule_id=1)

    def test_changes_priority_flag(self):
        mod = FlowMod.modify(1, priority=9)
        assert mod.changes_priority
        assert not FlowMod.modify(1, action=Action.drop()).changes_priority

    def test_constructors(self):
        r = rule("10.0.0.0/8", 1)
        assert FlowMod.add(r).command is FlowModCommand.ADD
        assert FlowMod.delete(3).rule_id == 3


class TestDirectInstaller:
    @pytest.fixture
    def installer(self):
        return DirectInstaller(pica8_p3290(), capacity=128)

    def test_add_then_lookup(self, installer):
        r = rule("10.0.0.0/8", 5, port=3)
        result = installer.apply(FlowMod.add(r))
        assert result.latency > 0
        assert not result.used_guaranteed_path
        hit = installer.lookup(Prefix.from_string("10.1.1.1").network)
        assert hit.action.port == 3

    def test_delete(self, installer):
        r = rule("10.0.0.0/8", 5)
        installer.apply(FlowMod.add(r))
        installer.apply(FlowMod.delete(r.rule_id))
        assert installer.occupancy() == 0

    def test_modify_action_is_cheap(self, installer):
        for index in range(60):
            installer.apply(FlowMod.add(rule(f"10.{index}.0.0/16", 50)))
        r = rule("172.16.0.0/12", 40)
        add_latency = installer.apply(FlowMod.add(r)).latency
        modify_latency = installer.apply(
            FlowMod.modify(r.rule_id, action=Action.drop())
        ).latency
        assert modify_latency < add_latency

    def test_priority_modify_becomes_delete_insert(self, installer):
        for index in range(100):
            installer.apply(FlowMod.add(rule(f"10.{index}.0.0/16", 50)))
        r = rule("172.16.0.0/12", 5)
        installer.apply(FlowMod.add(r))
        plain = installer.apply(FlowMod.modify(r.rule_id, action=Action.drop())).latency
        repositioned = installer.apply(FlowMod.modify(r.rule_id, priority=90)).latency
        assert installer.table.get(r.rule_id).priority == 90
        # Re-positioning shifts the 100 resident rules: far costlier than an
        # in-place rewrite.
        assert repositioned > plain

    def test_priority_modify_preserves_other_fields(self, installer):
        r = rule("10.0.0.0/8", 5, port=4)
        installer.apply(FlowMod.add(r))
        installer.apply(FlowMod.modify(r.rule_id, priority=50))
        survivor = installer.table.get(r.rule_id)
        assert survivor.action.port == 4
        assert survivor.match == TernaryMatch.from_string("10.0.0.0/8")

    def test_batch_applies_in_order(self, installer):
        mods = [FlowMod.add(rule(f"10.{i}.0.0/16", i)) for i in range(5)]
        results = installer.apply_batch(mods)
        assert len(results) == 5
        assert installer.occupancy() == 5

    def test_advance_time_is_noop(self, installer):
        assert installer.advance_time(12.0) == 0.0
