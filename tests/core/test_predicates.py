"""Tests for the match-predicate vocabulary (Section 7)."""

import pytest

from repro.core.predicates import (
    action_kind,
    everything,
    nothing,
    output_port_in,
    overlapping_prefix,
    priority_band,
    within_prefix,
)
from repro.tcam import Action, Rule


def rule(prefix, priority, action=None):
    return Rule.from_prefix(prefix, priority, action or Action.output(1))


class TestBasicPredicates:
    def test_everything_and_nothing(self):
        r = rule("10.0.0.0/8", 5)
        assert everything()(r)
        assert not nothing()(r)

    def test_within_prefix(self):
        inside = within_prefix("10.0.0.0/8")
        assert inside(rule("10.1.0.0/16", 5))
        assert inside(rule("10.0.0.0/8", 5))
        assert not inside(rule("11.0.0.0/8", 5))
        assert not inside(rule("0.0.0.0/0", 5))  # wider than the region

    def test_within_prefix_accepts_prefix_object(self):
        from repro.tcam import Prefix

        inside = within_prefix(Prefix.from_string("10.0.0.0/8"))
        assert inside(rule("10.2.0.0/16", 1))

    def test_overlapping_prefix(self):
        touches = overlapping_prefix("10.0.0.0/8")
        assert touches(rule("10.1.0.0/16", 5))
        assert touches(rule("0.0.0.0/0", 5))  # contains the region
        assert not touches(rule("11.0.0.0/8", 5))

    def test_priority_band(self):
        band = priority_band(10, 20)
        assert band(rule("10.0.0.0/8", 10))
        assert band(rule("10.0.0.0/8", 20))
        assert not band(rule("10.0.0.0/8", 9))
        assert not band(rule("10.0.0.0/8", 21))

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            priority_band(20, 10)

    def test_action_kind(self):
        drops = action_kind("drop")
        assert drops(rule("10.0.0.0/8", 5, Action.drop()))
        assert not drops(rule("10.0.0.0/8", 5))
        with pytest.raises(ValueError):
            action_kind("teleport")

    def test_output_port_in(self):
        uplinks = output_port_in([47, 48])
        assert uplinks(rule("10.0.0.0/8", 5, Action.output(48)))
        assert not uplinks(rule("10.0.0.0/8", 5, Action.output(1)))
        assert not uplinks(rule("10.0.0.0/8", 5, Action.drop()))


class TestCombinators:
    def test_and(self):
        combo = within_prefix("10.0.0.0/8") & priority_band(10, 99)
        assert combo(rule("10.1.0.0/16", 50))
        assert not combo(rule("10.1.0.0/16", 5))
        assert not combo(rule("11.0.0.0/8", 50))

    def test_or(self):
        combo = within_prefix("10.0.0.0/8") | within_prefix("11.0.0.0/8")
        assert combo(rule("10.1.0.0/16", 1))
        assert combo(rule("11.1.0.0/16", 1))
        assert not combo(rule("12.0.0.0/8", 1))

    def test_not(self):
        outside = ~within_prefix("10.0.0.0/8")
        assert outside(rule("11.0.0.0/8", 1))
        assert not outside(rule("10.1.0.0/16", 1))

    def test_description_composes(self):
        combo = ~(within_prefix("10.0.0.0/8") & priority_band(1, 5))
        assert "within 10.0.0.0/8" in combo.description
        assert "priority in [1, 5]" in combo.description
        assert repr(combo).startswith("Predicate(")


class TestHermesIntegration:
    def test_predicate_routes_guarantees(self):
        from repro.core import GuaranteeSpec, HermesConfig, HermesInstaller
        from repro.switchsim import FlowMod
        from repro.tcam import pica8_p3290

        tenant = within_prefix("10.0.0.0/8") & priority_band(100, 999)
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(guarantee=GuaranteeSpec.milliseconds(5)),
            predicate=tenant,
        )
        covered = hermes.apply(FlowMod.add(rule("10.1.0.0/16", 200)))
        uncovered = hermes.apply(FlowMod.add(rule("192.168.0.0/16", 200)))
        assert covered.used_guaranteed_path
        assert not uncovered.used_guaranteed_path
