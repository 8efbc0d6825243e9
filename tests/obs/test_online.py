"""Tests for the online verification hook riding the tracer stream."""

import pytest

from repro.core import GuaranteeSpec, HermesConfig, HermesInstaller
from repro.obs.online import OnlineVerifier
from repro.obs.tracer import RecordingTracer
from repro.switchsim import FlowMod
from repro.tcam import pica8_p3290
from repro.tcam.rule import Action, Rule


class CleanInstaller:
    """A monolithic installer snapshot with nothing wrong."""

    def tables(self):
        return {
            "monolithic": [
                Rule.from_prefix("10.0.0.0/24", 10, Action.output(1)),
                Rule.from_prefix("10.0.1.0/24", 11, Action.output(2)),
            ]
        }


class InvertedInstaller:
    """A shadow/main pair with a priority inversion (Figure 4(b))."""

    def tables(self):
        return {
            "shadow": [Rule.from_prefix("10.0.0.0/24", 5, Action.output(1))],
            "main": [Rule.from_prefix("10.0.0.0/24", 50, Action.output(2))],
        }


def emit_actions(tracer, switch, count, start=0.0):
    for index in range(count):
        tracer.start_span(
            "agent.action", start=start + index, switch=switch, command="add"
        ).finish(end=start + index + 0.5)


class TestOnlineVerifier:
    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            OnlineVerifier({}, every=0)

    def test_sampling_cadence(self):
        tracer = RecordingTracer()
        verifier = OnlineVerifier({"s1": CleanInstaller()}, every=3).attach(tracer)
        emit_actions(tracer, "s1", 10)
        assert verifier.checks_run == 3  # after actions 3, 6, 9
        assert verifier.violations_found == 0
        assert verifier.first_violation is None

    def test_counts_are_per_switch(self):
        tracer = RecordingTracer()
        verifier = OnlineVerifier(
            {"s1": CleanInstaller(), "s2": CleanInstaller()}, every=2
        ).attach(tracer)
        emit_actions(tracer, "s1", 2)
        emit_actions(tracer, "s2", 1)
        assert verifier.checks_run == 1  # s2 has not reached its period yet

    def test_catches_violation_with_first_instant(self):
        tracer = RecordingTracer()
        verifier = OnlineVerifier({"s1": InvertedInstaller()}, every=1).attach(tracer)
        emit_actions(tracer, "s1", 2)
        assert verifier.checks_run == 2
        assert verifier.violations_found > 0
        assert verifier.first_violation is not None
        # The first violating sim-instant is the end of the first action.
        assert verifier.first_violation["time"] == 0.5
        assert verifier.first_violation["switch"] == "s1"
        assert verifier.first_violation["kinds"]

    def test_live_hermes_inversion_named_at_its_instant(self):
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(guarantee=GuaranteeSpec.milliseconds(5)),
        )
        shadow_rule = Rule.from_prefix("10.0.0.0/24", 10, Action.output(1))
        hermes.apply(FlowMod.add(shadow_rule))
        assert hermes.tables()["shadow"] == [shadow_rule]
        tracer = RecordingTracer()
        verifier = OnlineVerifier({"s1": hermes}, every=1).attach(tracer)
        emit_actions(tracer, "s1", 3)
        assert verifier.checks_run == 3
        assert verifier.first_violation is None
        # A main-table write that bypasses Algorithm 1: it overlaps the
        # shadow rule at a higher priority, so shadow-first lookup masks it.
        hermes.main.insert(
            Rule.from_prefix("10.0.0.0/16", 50, Action.output(2))
        )
        emit_actions(tracer, "s1", 2, start=3.0)
        assert verifier.checks_run == 5
        assert verifier.first_violation == {
            "time": 3.5,
            "switch": "s1",
            "kinds": ["priority-inversion"],
        }

    def test_ignores_unknown_switches_and_other_records(self):
        tracer = RecordingTracer()
        verifier = OnlineVerifier({"s1": CleanInstaller()}, every=1).attach(tracer)
        emit_actions(tracer, "elsewhere", 3)
        tracer.event("fault.retry", time=0.0, switch="s1")
        tracer.sample("occ", time=0.0, value=1.0, switch="s1")
        assert verifier.checks_run == 0

    def test_report_shape(self):
        verifier = OnlineVerifier({"s1": CleanInstaller()})
        assert verifier.report() == {
            "checks_run": 0,
            "violations_found": 0,
            "first_violation": None,
        }
