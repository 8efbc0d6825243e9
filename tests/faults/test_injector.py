"""Tests for the fault-injection subsystem (specs, injector, log, table)."""

import pytest

from repro.faults import (
    AgentCrash,
    FaultInjector,
    FaultLog,
    FaultPlan,
    FaultyTable,
    FlowModFault,
    TcamWriteError,
    TcamWriteFault,
    verified_insert,
)
from repro.tcam import Action, Rule, TcamTable, pica8_p3290
from repro.tcam.table import TableFullError


def rule(prefix, priority):
    return Rule.from_prefix(prefix, priority, Action.output(1))


class TestSpecs:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FlowModFault(drop=1.5)
        with pytest.raises(ValueError):
            TcamWriteFault(fail=-0.1)

    def test_crash_window(self):
        crash = AgentCrash(times=(2.0,), restart_delay=0.5)
        assert not crash.down_at(1.9)
        assert crash.down_at(2.0)
        assert crash.down_at(2.4)
        assert not crash.down_at(2.5)


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=0.4, duplicate=0.2))
        a = FaultInjector(plan, seed=9)
        b = FaultInjector(plan, seed=9)
        verdicts_a = [a.flowmod_verdict(now=i * 0.1).kind for i in range(64)]
        verdicts_b = [b.flowmod_verdict(now=i * 0.1).kind for i in range(64)]
        assert verdicts_a == verdicts_b

    def test_different_seeds_differ(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=0.5))
        a = FaultInjector(plan, seed=1)
        b = FaultInjector(plan, seed=2)
        assert [a.flowmod_verdict(0.0).kind for _ in range(64)] != [
            b.flowmod_verdict(0.0).kind for _ in range(64)
        ]

    def test_null_plan_consumes_no_randomness(self):
        # The determinism contract: attaching a null-plan injector must not
        # advance the RNG, so fault-free runs stay byte-identical.
        injector = FaultInjector(FaultPlan(), seed=3)
        before = injector.rng.bit_generator.state
        for index in range(16):
            assert injector.flowmod_verdict(now=index * 1.0).kind == "deliver"
            assert injector.write_verdict(now=index * 1.0) == "ok"
            assert not injector.agent_down("sw", index * 1.0)
            assert injector.stall_duration("sw", index * 1.0) == 0.0
        assert injector.rng.bit_generator.state == before
        assert len(injector.log) == 0

    def test_child_rng_streams_are_stable_and_independent(self):
        injector = FaultInjector(seed=5)
        a1 = injector.child_rng("channel:sw1").random(4).tolist()
        a2 = injector.child_rng("channel:sw1").random(4).tolist()
        b = injector.child_rng("channel:sw2").random(4).tolist()
        assert a1 == a2
        assert a1 != b


class TestFaultLog:
    def test_records_and_counts(self):
        log = FaultLog()
        log.record("flowmod-drop", time=1.0, target="sw1", xid=7)
        log.record("flowmod-drop", time=2.0, target="sw2", xid=8)
        log.record("tcam-write-silent", time=2.5, target="main")
        assert len(log) == 3
        assert log.count("flowmod-drop") == 2
        assert log.counts()["tcam-write-silent"] == 1
        drops = log.events("flowmod-drop")
        assert [event.detail["xid"] for event in drops] == [7, 8]

    def test_injector_logs_every_fault(self):
        plan = FaultPlan(flowmod=FlowModFault(drop=1.0))
        injector = FaultInjector(plan, seed=0)
        for _ in range(5):
            injector.flowmod_verdict(now=0.0)
        assert len(injector.log) == 5


class TestFaultyTable:
    def _table(self):
        return TcamTable(pica8_p3290(), name="main")

    def test_transparent_without_faults(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        table = FaultyTable(self._table(), injector)
        r = rule("10.0.0.0/24", 5)
        table.insert(r)
        assert r.rule_id in table
        assert len(table) == 1
        assert table.get(r.rule_id).priority == 5

    def test_visible_failure_raises_and_charges_latency(self):
        plan = FaultPlan(tcam=TcamWriteFault(fail=1.0))
        table = FaultyTable(self._table(), FaultInjector(plan, seed=0))
        with pytest.raises(TcamWriteError) as excinfo:
            table.insert(rule("10.0.0.0/24", 5))
        assert excinfo.value.latency > 0
        assert len(table) == 0

    def test_silent_failure_acks_but_installs_nothing(self):
        plan = FaultPlan(tcam=TcamWriteFault(silent=1.0))
        table = FaultyTable(self._table(), FaultInjector(plan, seed=0))
        result = table.insert(rule("10.0.0.0/24", 5))
        assert result.latency > 0  # the switch did the work...
        assert len(table) == 0  # ...but nothing landed

    def test_deletes_stay_reliable(self):
        plan = FaultPlan(tcam=TcamWriteFault(fail=1.0, silent=0.0))
        inner = self._table()
        r = rule("10.0.0.0/24", 5)
        inner.insert(r)
        table = FaultyTable(inner, FaultInjector(plan, seed=0))
        table.delete(r.rule_id)
        assert r.rule_id not in table

    def test_capacity_errors_surface(self):
        timing = pica8_p3290()
        inner = TcamTable(timing, capacity=1, name="tiny")
        inner.insert(rule("10.0.0.0/24", 5))
        table = FaultyTable(inner, FaultInjector(FaultPlan(), seed=0))
        with pytest.raises(TableFullError):
            table.insert(rule("10.0.1.0/24", 6))


class TestVerifiedInsert:
    def test_recovers_from_silent_failures(self):
        # silent=0.5: some writes no-op; verified_insert must re-issue
        # until the rule is actually resident.
        plan = FaultPlan(tcam=TcamWriteFault(silent=0.5))
        table = FaultyTable(
            TcamTable(pica8_p3290(), name="main"), FaultInjector(plan, seed=2)
        )
        landed = 0
        for index in range(32):
            latency, ok = verified_insert(
                table, rule(f"10.0.{index}.0/24", 5), attempts=8
            )
            assert latency > 0
            landed += int(ok)
        assert landed == 32
        assert len(table) == 32

    def test_reports_failure_after_budget(self):
        plan = FaultPlan(tcam=TcamWriteFault(fail=1.0))
        table = FaultyTable(
            TcamTable(pica8_p3290(), name="main"), FaultInjector(plan, seed=0)
        )
        latency, ok = verified_insert(table, rule("10.0.0.0/24", 5), attempts=3)
        assert not ok
        assert latency > 0
        assert len(table) == 0

    def test_attempts_validation(self):
        table = TcamTable(pica8_p3290(), name="main")
        with pytest.raises(ValueError):
            verified_insert(table, rule("10.0.0.0/24", 5), attempts=0)
