"""Tests for the HermesInstaller: guarantees, correctness, migration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GuaranteeSpec, HermesConfig, HermesInstaller
from repro.switchsim import DirectInstaller, FlowMod, SwitchAgent
from repro.tcam import Action, Prefix, Rule, dell_8132f, pica8_p3290

from ..tcam.moveplan_oracle import capturing_writer


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def key(address):
    return Prefix.from_string(address).network


def make_hermes(**config_kwargs):
    config_kwargs.setdefault("guarantee", GuaranteeSpec.milliseconds(5))
    return HermesInstaller(pica8_p3290(), config=HermesConfig(**config_kwargs))


class TestConstruction:
    def test_shadow_sized_from_guarantee(self):
        hermes = make_hermes()
        timing = hermes.timing
        assert hermes.shadow.capacity == timing.max_occupancy_for_guarantee(5e-3)
        assert hermes.shadow.capacity + hermes.main.capacity == timing.capacity

    def test_shadow_capacity_override(self):
        hermes = make_hermes(shadow_capacity=10)
        assert hermes.shadow.capacity == 10

    def test_oversized_shadow_rejected(self):
        with pytest.raises(ValueError):
            make_hermes(shadow_capacity=pica8_p3290().capacity)

    def test_infeasible_guarantee_rejected(self):
        with pytest.raises(ValueError):
            make_hermes(guarantee=GuaranteeSpec(1e-9))

    def test_supported_rate_positive(self):
        assert make_hermes().supported_rate() > 0


class TestGuaranteedInsertion:
    def test_insert_goes_to_shadow(self):
        hermes = make_hermes()
        result = hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        assert result.used_guaranteed_path
        assert hermes.shadow.occupancy == 1
        assert hermes.main.occupancy == 0

    def test_insertion_latency_within_guarantee(self):
        hermes = make_hermes()
        for index in range(hermes.shadow.capacity):
            result = hermes.apply(
                FlowMod.add(rule(f"10.{index // 200}.{index % 200}.0/24", 100 + index))
            )
            assert result.latency <= 5e-3

    def test_violation_counting(self):
        hermes = make_hermes()
        assert hermes.violation_rate() == 0.0
        hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        assert hermes.violations == 0
        assert hermes.guaranteed_inserts == 1

    def test_rate_limited_overflow_goes_to_main(self):
        hermes = make_hermes(shadow_capacity=4)
        # Exhaust the burst (= shadow capacity tokens) without advancing time.
        for index in range(10):
            hermes.apply(FlowMod.add(rule(f"10.{index}.0.0/16", 100 + index)))
        assert hermes.main.occupancy > 0
        assert hermes.gate_keeper.diverted > 0

    def test_lowest_priority_fastpath_targets_main(self):
        hermes = make_hermes()
        hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        hermes.rule_manager.migrate(0.0)
        assert hermes.main.occupancy == 1
        result = hermes.apply(FlowMod.add(rule("0.0.0.0/0", 1)))
        assert not result.used_guaranteed_path
        assert hermes.main.occupancy == 2

    def test_fastpath_disabled_uses_shadow(self):
        hermes = make_hermes(lowest_priority_fastpath=False, admission_control=False)
        hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        hermes.rule_manager.migrate(0.0)
        result = hermes.apply(FlowMod.add(rule("11.0.0.0/8", 1)))
        assert result.used_guaranteed_path


class TestPartitionedInsertion:
    def make_with_blocker(self):
        hermes = make_hermes(lowest_priority_fastpath=False, admission_control=False)
        blocker = rule("192.168.1.0/26", 99, port=1)
        hermes.apply(FlowMod.add(blocker))
        hermes.rule_manager.migrate(0.0)
        assert hermes.main.occupancy == 1
        return hermes, blocker

    def test_overlapping_insert_is_partitioned(self):
        hermes, blocker = self.make_with_blocker()
        new = rule("192.168.1.0/24", 10, port=2)
        result = hermes.apply(FlowMod.add(new))
        assert len(result.installed_rule_ids) == 2  # /25 + /26 fragments
        assert hermes.partition_map.is_partitioned(new.rule_id)

    def test_partitioned_semantics_match_monolithic(self):
        hermes, blocker = self.make_with_blocker()
        new = rule("192.168.1.0/24", 10, port=2)
        hermes.apply(FlowMod.add(new))
        # Inside the blocker: port 1 wins (higher priority).
        assert hermes.lookup(key("192.168.1.5")).action.port == 1
        # Outside the blocker but inside /24: port 2.
        assert hermes.lookup(key("192.168.1.200")).action.port == 2

    def test_subsumed_rule_not_installed(self):
        hermes, blocker = self.make_with_blocker()
        dead = rule("192.168.1.0/28", 10, port=3)
        result = hermes.apply(FlowMod.add(dead))
        assert result.installed_rule_ids == ()
        assert hermes.lookup(key("192.168.1.5")).action.port == 1

    def test_deleting_logical_rule_removes_all_fragments(self):
        hermes, _ = self.make_with_blocker()
        new = rule("192.168.1.0/24", 10, port=2)
        hermes.apply(FlowMod.add(new))
        hermes.apply(FlowMod.delete(new.rule_id))
        assert hermes.lookup(key("192.168.1.200")) is None
        assert not hermes.partition_map.is_partitioned(new.rule_id)

    def test_deleting_blocker_restores_original(self):
        hermes, blocker = self.make_with_blocker()
        new = rule("192.168.1.0/24", 10, port=2)
        hermes.apply(FlowMod.add(new))
        hermes.apply(FlowMod.delete(blocker.rule_id))
        # Figure 6: the /26 hole is re-covered by the restored original.
        hit = hermes.lookup(key("192.168.1.5"))
        assert hit is not None and hit.action.port == 2

    def test_deleting_subsumed_rules_blocker_restores_it(self):
        hermes, blocker = self.make_with_blocker()
        dead = rule("192.168.1.0/28", 10, port=3)
        hermes.apply(FlowMod.add(dead))
        hermes.apply(FlowMod.delete(blocker.rule_id))
        assert hermes.lookup(key("192.168.1.5")).action.port == 3

    def test_delete_unknown_rule_raises(self):
        hermes, _ = self.make_with_blocker()
        with pytest.raises(KeyError):
            hermes.apply(FlowMod.delete(987654321))


class TestModify:
    def test_action_only_modify_is_constant_time(self):
        hermes = make_hermes()
        r = rule("10.0.0.0/8", 50, port=1)
        hermes.apply(FlowMod.add(r))
        result = hermes.apply(FlowMod.modify(r.rule_id, action=Action.output(9)))
        assert hermes.lookup(key("10.1.1.1")).action.port == 9
        assert result.latency < 1e-3

    def test_action_modify_of_partitioned_rule_updates_fragments(self):
        hermes = make_hermes(lowest_priority_fastpath=False, admission_control=False)
        blocker = rule("192.168.1.0/26", 99, port=1)
        hermes.apply(FlowMod.add(blocker))
        hermes.rule_manager.migrate(0.0)
        new = rule("192.168.1.0/24", 10, port=2)
        hermes.apply(FlowMod.add(new))
        hermes.apply(FlowMod.modify(new.rule_id, action=Action.output(7)))
        assert hermes.lookup(key("192.168.1.200")).action.port == 7
        # After the blocker goes, the restored original carries the new action.
        hermes.apply(FlowMod.delete(blocker.rule_id))
        assert hermes.lookup(key("192.168.1.5")).action.port == 7

    def test_priority_modify_repositions(self):
        hermes = make_hermes(admission_control=False)
        low = rule("10.0.0.0/8", 10, port=1)
        high = rule("10.0.0.0/16", 20, port=2)
        hermes.apply(FlowMod.add(low))
        hermes.apply(FlowMod.add(high))
        assert hermes.lookup(key("10.0.1.1")).action.port == 2
        hermes.apply(FlowMod.modify(low.rule_id, priority=99))
        assert hermes.lookup(key("10.0.1.1")).action.port == 1

    def test_gatekeeper_stage_follows_the_add(self):
        # The Gate Keeper share of an admitted insert is the charge its
        # event reports; a diverted insert has none, an action-only
        # modify has none, and a repositioning modify carries its add's.
        from repro.obs import RecordingTracer, use_tracer

        hermes = make_hermes(shadow_capacity=2)
        tracer = RecordingTracer()
        with use_tracer(tracer):
            admitted = hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
            hermes.apply(FlowMod.add(rule("11.0.0.0/8", 51)))
            diverted = hermes.apply(FlowMod.add(rule("12.0.0.0/8", 52)))
        charges = [
            record["attrs"]["latency"]
            for record in tracer.records
            if record["type"] == "event" and record["name"] == "hermes.gatekeeper"
        ]
        assert admitted.used_guaranteed_path and not diverted.used_guaranteed_path
        assert 0.0 < admitted.gatekeeper == charges[0] < admitted.latency
        assert diverted.gatekeeper == 0.0 == charges[2]
        moved = rule("13.0.0.0/8", 60)
        hermes.advance_time(10.0)
        hermes.apply(FlowMod.add(moved))
        action_only = hermes.apply(FlowMod.modify(moved.rule_id, action=Action.drop()))
        assert action_only.gatekeeper == 0.0
        repositioned = hermes.apply(FlowMod.modify(moved.rule_id, priority=70))
        assert repositioned.used_guaranteed_path
        assert repositioned.gatekeeper == admitted.gatekeeper

    def test_modify_unknown_rule_raises(self):
        hermes = make_hermes()
        with pytest.raises(KeyError):
            hermes.apply(FlowMod.modify(31337, action=Action.drop()))


class TestMigrationIntegration:
    def test_sustained_load_stays_guaranteed(self):
        hermes = make_hermes()
        agent = SwitchAgent(hermes)
        time = 0.0
        for index in range(600):
            r = rule(f"10.{(index // 200) % 200}.{index % 200}.0/24", 100 + index)
            completed = agent.submit(FlowMod.add(r), at_time=time)
            assert completed.result.used_guaranteed_path
            assert completed.result.latency <= 5e-3
            time += 1e-3  # 1000 rules/s
        assert len(hermes.rule_manager.migrations) >= 2
        assert hermes.violations == 0

    def test_verified_migrations_stay_clean_under_load(self, monkeypatch):
        hermes = make_hermes()
        manager = hermes.rule_manager
        batches = []
        monkeypatch.setattr(
            manager, "_write_to_main", capturing_writer(manager, batches)
        )
        agent = SwitchAgent(hermes)
        time = 0.0
        for index in range(400):
            r = rule(f"10.{index % 40}.{index % 200}.0/24", 100 + index)
            agent.submit(FlowMod.add(r), at_time=time)
            time += 1e-3
        planned = [batch for batch in batches if batch.planned]
        assert planned
        for batch in planned:
            assert batch.findings() == []
        assert manager.reissued_writes == 0

    def test_reconfigure_guarantee_resizes_shadow(self):
        hermes = make_hermes()
        original_capacity = hermes.shadow.capacity
        hermes.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        hermes.reconfigure_guarantee(GuaranteeSpec.milliseconds(1))
        assert hermes.shadow.capacity < original_capacity
        assert hermes.shadow.occupancy == 0  # drained during reconfigure
        assert hermes.lookup(key("10.1.1.1")) is not None
        hermes.reconfigure_guarantee(GuaranteeSpec.milliseconds(10))
        assert hermes.shadow.capacity > original_capacity


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "delete"]),
        st.integers(min_value=8, max_value=16),  # prefix length
        st.integers(min_value=0, max_value=15),  # subnet selector
        st.integers(min_value=1, max_value=60),  # priority
    ),
    min_size=1,
    max_size=25,
)


class TestDifferentialCorrectness:
    """Random workloads must keep Hermes's two tables semantically identical
    to one monolithic table — the paper's Section 4 guarantee."""

    @settings(max_examples=60, deadline=None)
    @given(OPS, st.booleans())
    def test_hermes_equals_monolithic(self, operations, fastpath):
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(
                shadow_capacity=32,
                lowest_priority_fastpath=fastpath,
                admission_control=False,
            ),
        )
        direct = DirectInstaller(dell_8132f())
        installed = []  # (hermes_rule, direct_rule) pairs
        time = 0.0
        for op, length, selector, priority in operations:
            time += 0.03
            hermes.advance_time(time)
            if op == "add" or not installed:
                mask = ((1 << length) - 1) << (32 - length)
                network = ((10 << 24) | (selector << (32 - length))) & mask
                prefix = Prefix(network, length)
                port = (priority % 7) + 1
                h_rule = Rule.from_prefix(prefix, priority, Action.output(port))
                d_rule = Rule.from_prefix(prefix, priority, Action.output(port))
                hermes.apply(FlowMod.add(h_rule))
                direct.apply(FlowMod.add(d_rule))
                installed.append((h_rule, d_rule))
            else:
                index = selector % len(installed)
                h_rule, d_rule = installed.pop(index)
                hermes.apply(FlowMod.delete(h_rule.rule_id))
                direct.apply(FlowMod.delete(d_rule.rule_id))
        # Probe boundaries of every installed prefix plus random corners.
        probes = set()
        for h_rule, _ in installed:
            prefix = h_rule.match.to_prefix()
            probes |= {prefix.first_address, prefix.last_address}
        probes |= {key("10.0.0.0"), key("10.255.255.255"), key("11.0.0.0")}
        for probe in sorted(probes):
            h_hit = hermes.lookup(probe)
            d_hit = direct.lookup(probe)
            # Skip probes where equal-priority overlapping rules make the
            # monolithic tie-break implementation-defined.
            matching = [
                r for r, _ in (
                    (h, d) for h, d in installed
                ) if r.match.matches(probe)
            ]
            priorities = [r.priority for r in matching]
            if priorities and priorities.count(max(priorities)) > 1:
                continue
            h_action = None if h_hit is None else h_hit.action
            d_action = None if d_hit is None else d_hit.action
            assert h_action == d_action, f"divergence at key {probe}"
