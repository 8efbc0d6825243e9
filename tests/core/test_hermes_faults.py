"""Tests for Hermes under faults: degraded mode and verified TCAM writes."""

from repro.core import GuaranteeSpec, HermesConfig, HermesInstaller
from repro.faults import FaultInjector, FaultPlan, TcamWriteFault
from repro.switchsim import FlowMod
from repro.tcam import Action, Rule, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def make_hermes(plan=None, seed=0, **config_kwargs):
    config_kwargs.setdefault("guarantee", GuaranteeSpec.milliseconds(5))
    injector = FaultInjector(plan, seed=seed) if plan is not None else None
    return HermesInstaller(
        pica8_p3290(), config=HermesConfig(**config_kwargs), injector=injector
    )


def invariant_violations(hermes):
    return sum(
        1
        for main_rule in hermes.main.rules()
        for shadow_rule in hermes.shadow.rules()
        if main_rule.priority > shadow_rule.priority
        and main_rule.overlaps(shadow_rule)
    )


class TestDegradedMode:
    def test_window_lifecycle(self):
        hermes = make_hermes()
        assert not hermes.is_degraded(0.0)
        hermes.enter_degraded(2.0)
        assert hermes.is_degraded(2.5)
        assert not hermes.is_degraded(3.0)  # window expired
        assert not hermes.is_degraded(2.5)  # and stays cleared

    def test_repeated_entries_extend_not_shrink(self):
        hermes = make_hermes()
        hermes.enter_degraded(2.0, duration=5.0)
        hermes.enter_degraded(2.5)  # shorter window must not shrink the first
        assert hermes.is_degraded(6.0)

    def test_degraded_inserts_bypass_shadow(self):
        hermes = make_hermes()
        hermes.advance_time(1.0)
        hermes.enter_degraded(1.0)
        shadow_before = hermes.shadow.occupancy
        result = hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        assert not result.used_guaranteed_path
        assert hermes.shadow.occupancy == shadow_before
        assert hermes.degraded_inserts == 1
        assert hermes.gate_keeper.reason_counts.get("degraded", 0) == 1

    def test_guarantee_returns_after_window(self):
        hermes = make_hermes()
        hermes.advance_time(1.0)
        hermes.enter_degraded(1.0)
        hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        hermes.advance_time(5.0)
        result = hermes.apply(FlowMod.add(rule("10.1.0.0/16", 60)))
        assert result.used_guaranteed_path


class TestVerifiedWrites:
    def test_silent_write_faults_cannot_lose_inserts(self):
        # 30% of TCAM writes silently no-op; every accepted ADD must still
        # end up physically resident somewhere.
        plan = FaultPlan(tcam=TcamWriteFault(silent=0.3))
        hermes = make_hermes(plan=plan, seed=7)
        accepted = 0
        for index in range(40):
            result = hermes.apply(
                FlowMod.add(rule(f"10.{index // 8}.{(index * 8) % 256}.0/24", 50 + index))
            )
            accepted += 1
            assert result.latency > 0
        # Verification re-issues silent no-ops; the rare install that
        # exhausts its retry budget is *accounted*, never silently lost.
        resident = hermes.shadow.occupancy + hermes.main.occupancy
        lost = hermes.injector.log.count("install-lost")
        assert resident + lost == accepted
        assert lost <= 2  # retry budget makes loss (0.3^3)-rare
        assert hermes.injector.log.count("tcam-write-silent") > 0

    def test_migration_reissues_silently_lost_writes(self):
        plan = FaultPlan(tcam=TcamWriteFault(silent=0.3))
        hermes = make_hermes(plan=plan, seed=3, shadow_capacity=8)
        now = 0.0
        installed = 0
        for index in range(64):
            now += 0.05
            hermes.advance_time(now)
            hermes.apply(
                FlowMod.add(
                    rule(f"10.{index % 16}.{(index * 4) % 256}.0/24", 40 + index)
                )
            )
            installed += 1
        hermes.advance_time(now + 10.0)  # let migrations drain
        assert len(hermes.rule_manager.migrations) > 0
        assert hermes.rule_manager.reissued_writes > 0  # faults did land
        assert invariant_violations(hermes) == 0
        resident = hermes.shadow.occupancy + hermes.main.occupancy
        lost = hermes.injector.log.count("install-lost")
        assert resident + lost == installed

    def test_null_plan_injector_changes_nothing(self):
        plain = make_hermes()
        faulty = make_hermes(plan=FaultPlan(), seed=0)
        for index in range(20):
            a = plain.apply(FlowMod.add(rule(f"10.0.{index}.0/24", 50 + index)))
            b = faulty.apply(FlowMod.add(rule(f"10.0.{index}.0/24", 50 + index)))
            assert a.latency == b.latency
            assert a.used_guaranteed_path == b.used_guaranteed_path
        assert plain.shadow.occupancy == faulty.shadow.occupancy
        assert plain.main.occupancy == faulty.main.occupancy
