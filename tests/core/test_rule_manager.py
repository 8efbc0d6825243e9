"""Tests for the Rule Manager: triggers, migration workflow, consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verifier import verify_partition
from repro.core import (
    CubicSplinePredictor,
    PartitionMap,
    PredictiveTrigger,
    RuleManager,
    SlackCorrector,
    ThresholdTrigger,
    partition_new_rule,
)
from repro.core.correction import DeadzoneCorrector, NoCorrection
from repro.core.prediction import ArmaPredictor, EwmaPredictor
from repro.faults import FaultInjector, FaultPlan, TcamWriteFault
from repro.faults.table import FaultyTable
from repro.tcam import (
    Action,
    Prefix,
    Rule,
    TcamTable,
    TernaryMatch,
    ideal_switch,
    pica8_p3290,
)
from repro.tcam.moveplan import conflicts_with_resident

from ..tcam.conflict_oracle import pairwise_conflicts
from ..tcam.moveplan_oracle import (
    MOVEPLAN_INVERSION,
    PlacementPlan,
    capturing_writer,
)


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def make_manager(threshold=None, shadow_capacity=16, main_capacity=512, **kwargs):
    shadow = TcamTable(pica8_p3290(), capacity=shadow_capacity, name="shadow")
    main = TcamTable(pica8_p3290(), capacity=main_capacity, name="main")
    pmap = PartitionMap()
    if threshold is not None:
        trigger = ThresholdTrigger(threshold)
    else:
        trigger = PredictiveTrigger(CubicSplinePredictor(window=4), SlackCorrector(1.0))
    kwargs.setdefault("epoch", 0.05)
    manager = RuleManager(shadow, main, pmap, trigger, **kwargs)
    return manager, shadow, main, pmap


class TestTriggers:
    def test_threshold_zero_fires_on_any_occupancy(self):
        trigger = ThresholdTrigger(0.0)
        assert trigger.should_migrate(1, 100)
        assert not trigger.should_migrate(0, 100)

    def test_threshold_waits_for_fill(self):
        trigger = ThresholdTrigger(0.5)
        assert not trigger.should_migrate(49, 100)
        assert trigger.should_migrate(50, 100)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdTrigger(1.5)

    def test_predictive_fires_when_forecast_overflows(self):
        trigger = PredictiveTrigger(EwmaPredictor(alpha=1.0), SlackCorrector(0.0))
        trigger.observe_epoch(60)
        assert trigger.should_migrate(50, 100)  # 50 + 60 > 100
        assert not trigger.should_migrate(30, 100)  # 30 + 60 <= 100

    def test_predictive_slack_inflates_forecast(self):
        plain = PredictiveTrigger(EwmaPredictor(alpha=1.0), SlackCorrector(0.0))
        inflated = PredictiveTrigger(EwmaPredictor(alpha=1.0), SlackCorrector(1.0))
        for trigger in (plain, inflated):
            trigger.observe_epoch(30)
        assert not plain.should_migrate(50, 100)  # 50 + 30 <= 100
        assert inflated.should_migrate(50, 100)  # 50 + 60 > 100

    def test_predictive_idle_shadow_never_migrates(self):
        trigger = PredictiveTrigger(EwmaPredictor(alpha=1.0), SlackCorrector(5.0))
        trigger.observe_epoch(1000)
        assert not trigger.should_migrate(0, 100)


class UngatedTrigger(PredictiveTrigger):
    """The trigger before the forecast-ceiling gate: fits on every call."""

    def should_migrate(self, occupancy, capacity):
        if occupancy == 0:
            return False
        if occupancy + self.corrector.apply(self.predictor.predict()) > capacity:
            return True
        if occupancy >= self.high_watermark * capacity:
            self.watermark_fires += 1
            return True
        return False


arrival_counts = st.integers(min_value=0, max_value=400).map(float)


@st.composite
def arrival_windows(draw):
    """All-zero, short (< 4 samples), steep-tailed and general windows."""
    shape = draw(st.sampled_from(["zeros", "short", "steep", "general"]))
    if shape == "zeros":
        return [0.0] * draw(st.integers(min_value=0, max_value=12))
    if shape == "short":
        return draw(st.lists(arrival_counts, max_size=3))
    if shape == "steep":
        flat = draw(st.lists(st.integers(0, 5).map(float), min_size=3, max_size=10))
        tail = draw(st.lists(st.integers(50, 2000).map(float), min_size=1, max_size=3))
        return flat + tail
    return draw(st.lists(arrival_counts, max_size=40))


def build_predictor(name, window, clamp):
    if name == "spline":
        return CubicSplinePredictor(window=window, clamp_factor=clamp)
    if name == "arma":
        return ArmaPredictor()
    return EwmaPredictor(alpha=0.5)


def build_corrector(name, amount):
    if name == "slack":
        return SlackCorrector(amount)
    if name == "deadzone":
        return DeadzoneCorrector(100.0 * amount)
    return NoCorrection()


class TestTriggerGate:
    @settings(max_examples=300, deadline=None)
    @given(
        window=arrival_windows(),
        predictor=st.sampled_from(["spline", "spline", "arma", "ewma"]),
        spline_window=st.integers(min_value=4, max_value=10),
        clamp=st.sampled_from([0.5, 1.0, 3.0]),
        corrector=st.sampled_from(["slack", "deadzone", "none"]),
        amount=st.sampled_from([0.0, 0.4, 1.0, 2.5]),
        watermark=st.sampled_from([0.5, 0.9, 1.0]),
        probes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1200),
                st.integers(min_value=1, max_value=1000),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_gated_decisions_match_an_ungated_fit(
        self, window, predictor, spline_window, clamp, corrector, amount,
        watermark, probes,
    ):
        gated = PredictiveTrigger(
            build_predictor(predictor, spline_window, clamp),
            build_corrector(corrector, amount),
            high_watermark=watermark,
        )
        ungated = UngatedTrigger(
            build_predictor(predictor, spline_window, clamp),
            build_corrector(corrector, amount),
            high_watermark=watermark,
        )
        for arrivals in window:
            gated.observe_epoch(arrivals)
            ungated.observe_epoch(arrivals)
        for occupancy, capacity in probes:
            assert gated.should_migrate(occupancy, capacity) == (
                ungated.should_migrate(occupancy, capacity)
            )
        assert gated.watermark_fires == ungated.watermark_fires

    def test_quiet_window_skips_the_spline_fit(self, monkeypatch):
        predictor = CubicSplinePredictor(window=8)
        trigger = PredictiveTrigger(predictor, SlackCorrector(1.0))
        for arrivals in (3, 5, 4, 6, 2, 5):
            trigger.observe_epoch(arrivals)
        fits = []
        real_predict = predictor.predict
        monkeypatch.setattr(
            predictor, "predict", lambda: fits.append(1) or real_predict()
        )
        # 10 + 2 * 3 * 6 <= 100: the corrected ceiling fits, so no forecast.
        assert not trigger.should_migrate(10, 100)
        assert fits == []
        # 90 + 36 > 100: now the forecast could fire and must be computed.
        trigger.should_migrate(90, 100)
        assert fits == [1]


def indexed_rules(manager):
    """The main-table index's contents, by rule id (a wildcard overlaps all)."""
    everything = Rule(TernaryMatch.wildcard(), 0, Action.drop())
    return {r.rule_id: r for r in manager.main_index.overlapping(everything)}


def assert_index_mirrors_main(manager):
    physical = manager.main.rules()
    assert len(manager.main_index) == len(physical)
    assert indexed_rules(manager) == {r.rule_id: r for r in physical}


class TestMainIndex:
    def test_seeded_from_a_populated_main_table(self):
        shadow = TcamTable(pica8_p3290(), capacity=8, name="shadow")
        main = TcamTable(pica8_p3290(), capacity=64, name="main")
        for index in range(5):
            main.insert(rule(f"10.{index}.0.0/16", 10 + index))
        manager = RuleManager(shadow, main, PartitionMap(), ThresholdTrigger(0.0))
        assert_index_mirrors_main(manager)

    def test_tracks_atomic_refreshes_strands_and_modifies(self):
        manager, shadow, main, _ = make_manager(
            threshold=0.0, main_capacity=6, atomic=True
        )
        resident = rule("10.0.0.0/8", 90)
        main.insert(resident)
        # Same id as the resident: the writer refreshes it atomically (it
        # sorts first, so the refresh runs while the main table has room).
        shadow.insert(
            Rule(resident.match, resident.priority, Action.output(7),
                 rule_id=resident.rule_id)
        )
        for index in range(8):
            shadow.insert(rule(f"11.{index}.0.0/16", 20 + index))
        manager.migrate(now=0.0)
        assert shadow.occupancy > 0  # the main table stranded some rules
        assert_index_mirrors_main(manager)
        survivor = main.rules()[0]
        main.modify(survivor.rule_id, action=Action.output(3))
        assert_index_mirrors_main(manager)
        for installed in main.rules()[:2]:
            main.delete(installed.rule_id)
        manager.migrate(now=1.0)
        assert_index_mirrors_main(manager)

    def test_atomic_refresh_into_a_full_main_table_is_stranded(self):
        manager, shadow, main, _ = make_manager(
            threshold=0.0, main_capacity=4, atomic=True
        )
        resident = rule("10.0.0.0/8", 1)
        main.insert(resident)
        # A low-priority refresh sorts after the batch, which fills the
        # main table before the refresh's replacement can go in.
        shadow.insert(
            Rule(resident.match, resident.priority, Action.output(7),
                 rule_id=resident.rule_id)
        )
        for index in range(3):
            shadow.insert(rule(f"11.{index}.0.0/16", 20 + index, port=2 + index))
        report = manager.migrate(now=0.0)
        assert main.is_full
        assert report.transient_gap_time == 0.0
        # The fresh version still answers from the shadow, ahead of its
        # stale twin in the main table.
        assert [(r.rule_id, r.action) for r in shadow.rules()] == [
            (resident.rule_id, Action.output(7))
        ]
        assert main.get(resident.rule_id).action == resident.action
        assert_index_mirrors_main(manager)

    def test_tracks_a_fault_wrapped_main_table_through_silent_writes(self):
        injector = FaultInjector(FaultPlan(tcam=TcamWriteFault(silent=0.4)), seed=5)
        shadow = TcamTable(pica8_p3290(), capacity=32, name="shadow")
        main = FaultyTable(
            TcamTable(pica8_p3290(), capacity=512, name="main"), injector
        )
        manager = RuleManager(
            shadow, main, PartitionMap(), ThresholdTrigger(0.0),
            fault_log=injector.log,
        )
        for round_index in range(3):
            for index in range(10):
                shadow.insert(
                    rule(f"10.{round_index}.{index}.0/24", 5 + 10 * round_index + index)
                )
            manager.migrate(now=float(round_index))
            assert_index_mirrors_main(manager)
        assert injector.log.count("tcam-write-silent") > 0
        probe = [rule("10.0.0.0/8", 99), rule("10.1.0.0/16", 1), rule("10.2.3.0/24", 30)]
        assert conflicts_with_resident(probe, manager.main_index) == (
            pairwise_conflicts(probe, main.rules())
        )


class TestMigrationWorkflow:
    def test_moves_all_shadow_rules_to_main(self):
        manager, shadow, main, _ = make_manager(threshold=0.0)
        for index in range(5):
            shadow.insert(rule(f"10.{index}.0.0/16", 10 + index))
        report = manager.migrate(now=1.0)
        assert shadow.occupancy == 0
        assert main.occupancy == 5
        assert report.rules_copied == 5
        assert report.rules_written == 5
        assert report.duration > 0

    def test_stranded_rule_under_a_migrated_rule_fits_the_shadow(self):
        timing = ideal_switch()
        shadow = TcamTable(timing, capacity=4, name="shadow")
        main = TcamTable(timing, capacity=3, name="main")
        main.insert(rule("10.1.1.0/24", 5))
        main.insert(rule("10.2.2.0/24", 6))
        migrated, stranded = rule("10.0.0.0/8", 100), rule("0.0.0.0/0", 50)
        reference = main.rules() + [migrated, stranded]
        shadow.insert(migrated)
        shadow.insert(stranded)
        manager = RuleManager(shadow, main, PartitionMap(), ThresholdTrigger(0.0))
        # The /8 fills the main table and the /0 is stranded.  Cut against
        # the /8 it would need eight fragments in a four-entry shadow.
        manager.migrate(now=0.0)
        assert verify_partition(shadow, main, reference=reference) == []
        assert_index_mirrors_main(manager)

    def test_empty_shadow_migration_is_cheap(self):
        manager, _, _, _ = make_manager(threshold=0.0)
        report = manager.migrate(now=0.0)
        assert report.rules_copied == 0
        assert report.rules_written == 0

    def test_fragment_family_collapses_to_original(self):
        manager, shadow, main, pmap = make_manager()
        blocker = rule("10.0.0.0/16", 99, port=1)
        main.insert(blocker)
        original = rule("10.0.0.0/8", 10, port=2)
        outcome = partition_new_rule(original, main.rules())
        assert len(outcome.fragments) > 1
        for fragment in outcome.fragments:
            shadow.insert(fragment)
        pmap.record(original, outcome)
        report = manager.migrate(now=0.0)
        # The fragments collapsed back into the single original rule.
        assert report.rules_merged_away == len(outcome.fragments) - 1
        assert original.rule_id in main
        assert not pmap.is_partitioned(original.rule_id)
        # Semantics: the blocker still wins inside 10.0/16, the original
        # catches the rest of 10/8.
        assert main.lookup(Prefix.from_string("10.0.1.1").network).action.port == 1
        assert main.lookup(Prefix.from_string("10.9.1.1").network).action.port == 2

    def test_optimizer_disabled_writes_fragments_verbatim(self):
        manager, shadow, main, pmap = make_manager(optimize=False)
        blocker = rule("10.0.0.0/16", 99)
        main.insert(blocker)
        original = rule("10.0.0.0/8", 10)
        outcome = partition_new_rule(original, main.rules())
        for fragment in outcome.fragments:
            shadow.insert(fragment)
        pmap.record(original, outcome)
        report = manager.migrate(now=0.0)
        assert report.rules_merged_away == 0
        assert report.rules_written == len(outcome.fragments)

    def test_main_table_overflow_strands_rules_in_shadow(self):
        manager, shadow, main, _ = make_manager(main_capacity=3)
        for index in range(6):
            shadow.insert(rule(f"10.{index}.0.0/16", 10 + index))
        manager.migrate(now=0.0)
        assert main.occupancy == 3
        assert shadow.occupancy == 3  # the stranded remainder

    def test_atomic_migration_has_no_gap(self):
        manager, shadow, main, _ = make_manager(atomic=True)
        resident = rule("10.0.0.0/8", 10)
        main.insert(resident)
        shadow.insert(rule("11.0.0.0/8", 10))
        report = manager.migrate(now=0.0)
        assert report.transient_gap_time == 0.0

    def test_non_atomic_migration_records_gap(self):
        manager, shadow, main, _ = make_manager(atomic=False, optimize=False)
        resident = rule("10.0.0.0/8", 10)
        main.insert(resident)
        # Plant a shadow rule with the *same id* to force a refresh cycle.
        shadow.insert(
            Rule(
                match=resident.match,
                priority=resident.priority,
                action=Action.output(7),
                rule_id=resident.rule_id,
            )
        )
        report = manager.migrate(now=0.0)
        assert report.transient_gap_time > 0.0
        assert main.get(resident.rule_id).action.port == 7

    def test_conflicting_migrated_rules_pay_online_cost(self):
        """A migrated rule that dominates a main-table resident cannot use
        a planned (zero-shift) slot: it must pay the shifting cost."""
        manager, shadow, main, _ = make_manager(main_capacity=1024)
        for index in range(200):
            main.insert(rule(f"10.{index % 200}.0.0/16", 10))
        # Clean rule: disjoint from everything in main.
        clean = rule("192.168.0.0/16", 99)
        shadow.insert(clean)
        report_clean = manager.migrate(now=0.0)
        # Conflicting rule: dominates the resident /16s.
        dominating = rule("10.0.0.0/8", 99)
        shadow.insert(dominating)
        report_conflicted = manager.migrate(now=1.0)
        assert report_conflicted.write_time > 5 * report_clean.write_time

    def test_migration_report_accounting(self):
        manager, shadow, _, _ = make_manager()
        for index in range(4):
            shadow.insert(rule(f"10.{index}.0.0/16", 10))
        report = manager.migrate(now=2.5)
        assert report.started_at == 2.5
        assert report.duration >= report.optimizer_time + report.write_time


class TestTick:
    def test_tick_before_epoch_boundary_does_nothing(self):
        manager, shadow, _, _ = make_manager(threshold=0.0)
        shadow.insert(rule("10.0.0.0/8", 1))
        assert manager.tick(0.01) == 0.0
        assert shadow.occupancy == 1

    def test_tick_after_epoch_runs_trigger(self):
        manager, shadow, main, _ = make_manager(threshold=0.0)
        shadow.insert(rule("10.0.0.0/8", 1))
        background = manager.tick(0.06)
        assert background > 0.0
        assert shadow.occupancy == 0
        assert main.occupancy == 1

    def test_predictive_end_to_end(self):
        manager, shadow, main, _ = make_manager(shadow_capacity=8)
        time = 0.0
        for index in range(32):
            manager.tick(time)
            if not shadow.is_full:
                shadow.insert(rule(f"10.{index}.0.0/16", 10 + index))
                manager.note_arrival()
            time += 0.02  # ~2.5 arrivals per 0.05s epoch against capacity 8
        manager.tick(time)
        assert len(manager.migrations) >= 1
        assert main.occupancy > 0

    def test_long_idle_gap_is_collapsed(self):
        manager, shadow, _, _ = make_manager()
        shadow.insert(rule("10.0.0.0/8", 1))
        manager.note_arrival()
        # A huge time jump must not stall in per-epoch bookkeeping.
        manager.tick(1e6)
        assert manager._epoch_start == pytest.approx(1e6, abs=manager.epoch)

    def test_migrations_per_second(self):
        manager, shadow, _, _ = make_manager(threshold=0.0)
        shadow.insert(rule("10.0.0.0/8", 1))
        manager.migrate(0.0)
        assert manager.migrations_per_second(2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            manager.migrations_per_second(0.0)

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            make_manager(epoch=0.0)


class TestMigrationVerification:
    """Every real migration batch the writer sends down the planned
    (zero-shift) path must be plannable by the oracle with no finding."""

    def test_clean_migration_plan_verifies(self, monkeypatch):
        manager, shadow, main, _ = make_manager(threshold=0.0)
        batches = []
        monkeypatch.setattr(
            manager, "_write_to_main", capturing_writer(manager, batches)
        )
        for index in range(4):
            shadow.insert(rule(f"10.{index}.0.0/16", 10 + index))
        manager.migrate(now=1.0)
        assert [len(batch.planned) for batch in batches] == [4]
        assert batches[0].findings() == []
        assert main.occupancy == 4

    def test_sabotaged_plan_surfaces_inversion(self, monkeypatch):
        manager, shadow, _, _ = make_manager(threshold=0.0)
        batches = []
        monkeypatch.setattr(
            manager, "_write_to_main", capturing_writer(manager, batches)
        )
        shadow.insert(rule("10.0.0.0/8", 10))
        shadow.insert(rule("10.0.0.0/16", 20))
        manager.migrate(now=1.0)
        (batch,) = batches
        plan = batch.plan()
        assert batch.findings(plan) == []
        reversed_plan = PlacementPlan(
            order=tuple(reversed(plan.order)),
            slots=plan.slots,
            moves_avoided=plan.moves_avoided,
        )
        kinds = {finding.kind for finding in batch.findings(reversed_plan)}
        assert MOVEPLAN_INVERSION in kinds

    def test_refresh_only_migration_skips_planning(self, monkeypatch):
        manager, shadow, main, _ = make_manager(threshold=0.0)
        batches = []
        monkeypatch.setattr(
            manager, "_write_to_main", capturing_writer(manager, batches)
        )
        migrated = rule("10.0.0.0/16", 10)
        main.insert(migrated)
        shadow.insert(migrated)
        manager.migrate(now=1.0)
        # The only rule already lives in the main table, so the writer runs
        # its refresh protocol and there is no planned batch to verify.
        assert [batch.planned for batch in batches] == [()]
