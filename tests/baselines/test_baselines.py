"""Tests for the ESPRES / Tango / ShadowSwitch baselines."""

import itertools

import numpy as np
import pytest

import repro.tcam.rule as rule_module
from repro.baselines import (
    INSTALLER_NAMES,
    EspresInstaller,
    NaiveInstaller,
    ShadowSwitchInstaller,
    TangoInstaller,
    make_installer,
)
from repro.experiments.common import default_hermes_config
from repro.switchsim import FlowMod
from repro.tcam import Action, Prefix, Rule, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def key(address):
    return Prefix.from_string(address).network


def ascending_priority_batch(count=20, start=100):
    """A batch whose arrival order (ascending priority) maximizes shifting."""
    return [
        FlowMod.add(rule(f"10.{index}.0.0/16", start + index))
        for index in range(count)
    ]


class TestEspres:
    def test_reordering_beats_naive_on_adversarial_batch(self):
        naive = NaiveInstaller(pica8_p3290())
        espres = EspresInstaller(pica8_p3290())
        naive_latency = sum(
            r.latency for r in naive.apply_batch(ascending_priority_batch())
        )
        espres_latency = sum(
            r.latency for r in espres.apply_batch(ascending_priority_batch())
        )
        assert espres_latency < naive_latency

    def test_results_align_with_input_order(self):
        espres = EspresInstaller(pica8_p3290())
        mods = ascending_priority_batch(count=5)
        results = espres.apply_batch(mods)
        assert len(results) == 5
        for flow_mod, result in zip(mods, results):
            assert result.installed_rule_ids == (flow_mod.rule.rule_id,)

    def test_deletes_scheduled_before_adds(self):
        espres = EspresInstaller(pica8_p3290(), capacity=4)
        resident = rule("10.0.0.0/16", 10)
        espres.apply(FlowMod.add(resident))
        for index in range(3):
            espres.apply(FlowMod.add(rule(f"11.{index}.0.0/16", 10)))
        assert espres.table.is_full
        # Naive order would overflow: add arrives before the delete.
        batch = [FlowMod.add(rule("12.0.0.0/16", 10)), FlowMod.delete(resident.rule_id)]
        espres.apply_batch(batch)
        assert espres.occupancy() == 4

    def test_single_mods_pass_through(self):
        espres = EspresInstaller(pica8_p3290())
        r = rule("10.0.0.0/8", 5, port=3)
        espres.apply(FlowMod.add(r))
        assert espres.lookup(key("10.1.1.1")).action.port == 3


class TestTango:
    def test_sibling_aggregation_reduces_physical_entries(self):
        tango = TangoInstaller(pica8_p3290())
        batch = [
            FlowMod.add(rule(f"10.0.{index}.0/24", 50, port=2)) for index in range(8)
        ]
        tango.apply_batch(batch)
        assert tango.occupancy() == 1
        assert tango.logical_rule_count() == 8

    def test_aggregation_preserves_lookup_semantics(self):
        tango = TangoInstaller(pica8_p3290())
        batch = [
            FlowMod.add(rule("10.0.0.0/24", 50, port=2)),
            FlowMod.add(rule("10.0.1.0/24", 50, port=2)),
            FlowMod.add(rule("10.0.2.0/24", 50, port=3)),  # different action
        ]
        tango.apply_batch(batch)
        assert tango.lookup(key("10.0.0.5")).action.port == 2
        assert tango.lookup(key("10.0.1.5")).action.port == 2
        assert tango.lookup(key("10.0.2.5")).action.port == 3
        assert tango.occupancy() == 2

    def test_different_priorities_not_aggregated(self):
        tango = TangoInstaller(pica8_p3290())
        batch = [
            FlowMod.add(rule("10.0.0.0/24", 50)),
            FlowMod.add(rule("10.0.1.0/24", 60)),
        ]
        tango.apply_batch(batch)
        assert tango.occupancy() == 2

    def test_member_delete_splits_aggregate(self):
        tango = TangoInstaller(pica8_p3290())
        members = [rule(f"10.0.{index}.0/24", 50, port=2) for index in range(4)]
        tango.apply_batch([FlowMod.add(member) for member in members])
        assert tango.occupancy() == 1
        tango.apply(FlowMod.delete(members[0].rule_id))
        # The survivors re-aggregate: 10.0.1/24 alone + 10.0.2-3 -> /23.
        assert tango.logical_rule_count() == 3
        assert tango.lookup(key("10.0.0.5")) is None
        assert tango.lookup(key("10.0.3.5")).action.port == 2

    def test_aggregate_member_modify_splits(self):
        tango = TangoInstaller(pica8_p3290())
        members = [rule(f"10.0.{index}.0/24", 50, port=2) for index in range(2)]
        tango.apply_batch([FlowMod.add(member) for member in members])
        tango.apply(FlowMod.modify(members[0].rule_id, action=Action.output(9)))
        assert tango.lookup(key("10.0.0.5")).action.port == 9
        assert tango.lookup(key("10.0.1.5")).action.port == 2

    def test_plain_modify_in_place(self):
        tango = TangoInstaller(pica8_p3290())
        r = rule("10.0.0.0/24", 50, port=2)
        tango.apply(FlowMod.add(r))
        tango.apply(FlowMod.modify(r.rule_id, action=Action.output(4)))
        assert tango.lookup(key("10.0.0.5")).action.port == 4

    def test_delete_unknown_raises(self):
        with pytest.raises(KeyError):
            TangoInstaller(pica8_p3290()).apply(FlowMod.delete(12345))

    def test_aggregation_beats_espres_on_sibling_heavy_batch(self):
        espres = EspresInstaller(pica8_p3290())
        tango = TangoInstaller(pica8_p3290())
        make_batch = lambda: [
            FlowMod.add(rule(f"10.{index // 16}.{index % 16}.0/24", 50))
            for index in range(64)
        ]
        espres_latency = sum(r.latency for r in espres.apply_batch(make_batch()))
        tango_latency = sum(r.latency for r in tango.apply_batch(make_batch()))
        assert tango_latency < espres_latency


class TestShadowSwitch:
    def test_insert_is_software_fast(self):
        shadow = ShadowSwitchInstaller(pica8_p3290())
        result = shadow.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        assert result.latency == pytest.approx(5e-5)
        assert shadow.software_occupancy() == 1
        assert shadow.tcam.occupancy == 0

    def test_background_sync_moves_rules_to_tcam(self):
        shadow = ShadowSwitchInstaller(pica8_p3290(), sync_interval=0.05)
        shadow.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        background = shadow.advance_time(0.1)
        assert background > 0
        assert shadow.software_occupancy() == 0
        assert shadow.tcam.occupancy == 1
        assert shadow.time_in_software and shadow.time_in_software[0] >= 0

    def test_lookup_spans_both_levels(self):
        shadow = ShadowSwitchInstaller(pica8_p3290(), sync_interval=0.05)
        old = rule("10.0.0.0/8", 10, port=1)
        shadow.apply(FlowMod.add(old))
        shadow.advance_time(0.1)  # old now in TCAM
        new = rule("10.0.0.0/16", 90, port=2)
        shadow.apply(FlowMod.add(new))  # still in software
        assert shadow.lookup(key("10.0.1.1")).action.port == 2
        assert shadow.lookup(key("10.9.1.1")).action.port == 1

    def test_delete_from_software(self):
        shadow = ShadowSwitchInstaller(pica8_p3290())
        r = rule("10.0.0.0/8", 50)
        shadow.apply(FlowMod.add(r))
        shadow.apply(FlowMod.delete(r.rule_id))
        assert shadow.occupancy() == 0

    def test_delete_from_tcam(self):
        shadow = ShadowSwitchInstaller(pica8_p3290(), sync_interval=0.01)
        r = rule("10.0.0.0/8", 50)
        shadow.apply(FlowMod.add(r))
        shadow.advance_time(0.05)
        shadow.apply(FlowMod.delete(r.rule_id))
        assert shadow.occupancy() == 0

    def test_software_resident_fraction(self):
        shadow = ShadowSwitchInstaller(pica8_p3290(), sync_interval=1.0)
        assert shadow.software_resident_fraction() == 0.0
        shadow.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        assert shadow.software_resident_fraction() == 1.0

    def test_modify_in_software(self):
        shadow = ShadowSwitchInstaller(pica8_p3290())
        r = rule("10.0.0.0/8", 50, port=1)
        shadow.apply(FlowMod.add(r))
        shadow.apply(FlowMod.modify(r.rule_id, action=Action.output(6)))
        assert shadow.lookup(key("10.1.1.1")).action.port == 6


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("naive", NaiveInstaller),
            ("espres", EspresInstaller),
            ("tango", TangoInstaller),
            ("shadowswitch", ShadowSwitchInstaller),
        ],
    )
    def test_make_installer(self, name, cls):
        assert isinstance(make_installer(name, pica8_p3290()), cls)

    def test_make_hermes(self):
        from repro.core import HermesInstaller

        assert isinstance(
            make_installer("hermes", pica8_p3290()), HermesInstaller
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_installer("magic", pica8_p3290())

    @pytest.mark.parametrize("name", INSTALLER_NAMES)
    def test_prefill_lands_in_the_prefill_table_and_stays_deletable(self, name):
        installer = make_installer(name, pica8_p3290(), rng=np.random.default_rng(0))
        rules = [rule(f"10.{index}.0.0/16", 10 + index % 3) for index in range(40)]
        installer.prefill(rules)
        table = installer.prefill_table()
        assert sorted(r.rule_id for r in table.rules()) == [r.rule_id for r in rules]
        assert table.stats.insertions == 40
        assert installer.lookup(key("10.7.1.1")).rule_id == rules[7].rule_id
        installer.apply(FlowMod.delete(rules[7].rule_id))
        assert installer.occupancy() == 39
        assert installer.lookup(key("10.7.1.1")) is None


def random_flow_mods(count, seed):
    """A seeded ADD/DELETE/MODIFY sequence that only addresses live rules."""
    rng = np.random.default_rng(seed)
    live = []
    mods = []
    for _ in range(count):
        draw = rng.random()
        if not live or draw < 0.5:
            length = int(rng.integers(16, 25))
            address = int(rng.integers(0, 2**32)) >> (32 - length) << (32 - length)
            dotted = ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))
            new = rule(f"{dotted}/{length}", int(rng.integers(1, 200)),
                       port=int(rng.integers(1, 9)))
            live.append(new.rule_id)
            mods.append(FlowMod.add(new))
        elif draw < 0.75:
            mods.append(FlowMod.delete(live.pop(int(rng.integers(len(live))))))
        elif draw < 0.9:
            target = live[int(rng.integers(len(live)))]
            mods.append(FlowMod.modify(target, action=Action.output(int(rng.integers(1, 9)))))
        else:
            target = live[int(rng.integers(len(live)))]
            mods.append(FlowMod.modify(target, priority=int(rng.integers(1, 200))))
    return mods


class TestBatchOfOne:
    """``apply_batch([m])`` is ``apply(m)`` for every scheme.

    The switch agent submits a single FlowMod as a batch of one, so this
    equivalence is what keeps single-FlowMod runs unchanged — including
    for ESPRES and Tango, which override ``apply_batch``.
    """

    @pytest.mark.parametrize("scheme", INSTALLER_NAMES)
    def test_single_mod_batches_match_apply(self, scheme, monkeypatch):
        mods = random_flow_mods(400, seed=11)

        def run(apply):
            # Fragments and rewritten rules draw fresh ids: restart the
            # global counter so both runs name them identically.
            monkeypatch.setattr(rule_module, "_rule_counter", itertools.count(10**9))
            installer = make_installer(
                scheme, pica8_p3290(), rng=np.random.default_rng(5),
                hermes_config=default_hermes_config(),
            )
            results = [apply(installer, flow_mod) for flow_mod in mods]
            return results, installer.tables()

        single = run(lambda installer, flow_mod: installer.apply(flow_mod))
        batched = run(lambda installer, flow_mod: installer.apply_batch([flow_mod])[0])
        assert batched[0] == single[0]
        assert batched[1] == single[1]
        assert sum(len(rules) for rules in single[1].values()) > 0
