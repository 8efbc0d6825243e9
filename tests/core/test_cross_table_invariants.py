"""Regression tests for cross-table correctness hazards.

Each test pins one scenario originally caught by the churn-differential
property test (tests/integration/test_cross_layer.py): subtle interactions
between the diverted-to-main insertion paths, migration, and Figure 6's
un-partitioning.
"""

from repro.core import GuaranteeSpec, HermesConfig, HermesInstaller
from repro.switchsim import FlowMod
from repro.tcam import Action, Prefix, Rule, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


def key(address):
    return Prefix.from_string(address).network


def make_hermes(**overrides):
    config = dict(
        guarantee=GuaranteeSpec.milliseconds(5),
        admission_control=False,
        shadow_capacity=32,
    )
    config.update(overrides)
    return HermesInstaller(pica8_p3290(), config=HermesConfig(**config))


class TestMainInsertDominatingShadow:
    """A rule diverted to the main table can dominate shadow residents —
    the mirror image of the Figure 4 hazard."""

    def test_rate_limited_main_insert_repartitions_shadow(self):
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(
                shadow_capacity=4,
                admission_control=False,
                lowest_priority_fastpath=False,
            ),
        )
        low = rule("10.0.0.0/8", 10, port=1)
        hermes.apply(FlowMod.add(low))  # lands in the shadow
        assert hermes.shadow.occupancy == 1
        # Fill the shadow so the next insert diverts to the main table.
        for index in range(3):
            hermes.apply(FlowMod.add(rule(f"192.168.{index}.0/24", 50)))
        high = rule("10.0.0.0/16", 99, port=2)
        result = hermes.apply(FlowMod.add(high))
        assert not result.used_guaranteed_path  # shadow full: went to main
        # Correctness: inside 10.0/16 the higher-priority main rule wins;
        # the rest of 10/8 still belongs to the shadow rule.
        assert hermes.lookup(key("10.0.1.1")).action.port == 2
        assert hermes.lookup(key("10.9.1.1")).action.port == 1

    def test_fastpath_main_insert_repartitions_shadow(self):
        hermes = make_hermes()
        # Seed the main table so the fastpath has a bottom to compare with.
        seed = rule("172.16.0.0/12", 200)
        hermes.apply(FlowMod.add(seed))
        hermes.rule_manager.migrate(0.0)
        low = rule("10.0.0.0/8", 20, port=1)
        hermes.apply(FlowMod.add(low))  # prio 20 < main lowest? no: 20 < 200
        # 'low' matched the fastpath (priority below the main bottom), so
        # it sits in main; now a shadow rule below it:
        lower = rule("10.0.0.0/9", 5, port=3)
        hermes.apply(FlowMod.add(lower))
        assert hermes.lookup(key("10.1.1.1")).action.port == 1

    def test_dominated_shadow_rule_restored_when_dominator_leaves(self):
        hermes = HermesInstaller(
            pica8_p3290(),
            config=HermesConfig(
                shadow_capacity=4,
                admission_control=False,
                lowest_priority_fastpath=False,
            ),
        )
        low = rule("10.0.0.0/8", 10, port=1)
        hermes.apply(FlowMod.add(low))
        for index in range(3):
            hermes.apply(FlowMod.add(rule(f"192.168.{index}.0/24", 50)))
        high = rule("10.0.0.0/16", 99, port=2)
        hermes.apply(FlowMod.add(high))
        hermes.apply(FlowMod.delete(high.rule_id))
        # The cut-out region belongs to the low rule again.
        assert hermes.lookup(key("10.0.1.1")).action.port == 1


class TestFragmentsInMainAsBlockers:
    """Fragments that migrate into the main table can themselves block
    later insertions; deleting their logical rule must restore the rules
    they blocked."""

    def test_delete_of_migrated_fragments_restores_blocked_rules(self):
        hermes = make_hermes(lowest_priority_fastpath=False)
        # A high-priority rule that will be partitioned: blocked by an even
        # higher-priority main resident.
        resident = rule("10.0.0.0/24", 200, port=9)
        hermes.apply(FlowMod.add(resident))
        hermes.rule_manager.migrate(0.0)
        assert resident.rule_id in hermes.main

        fragmented = rule("10.0.0.0/16", 100, port=2)
        hermes.apply(FlowMod.add(fragmented))
        assert hermes.partition_map.is_partitioned(fragmented.rule_id)
        # Migrate: the family collapses back into the original inside main.
        hermes.rule_manager.migrate(1.0)
        assert fragmented.rule_id in hermes.main

        # Now a lower-priority rule overlapping it gets partitioned with
        # the migrated rule as (one of) its blockers.
        lower = rule("10.0.0.0/12", 50, port=3)
        hermes.apply(FlowMod.add(lower))
        assert hermes.lookup(key("10.0.1.1")).action.port == 2

        # Deleting the blocker's logical rule must lift the cuts.
        hermes.apply(FlowMod.delete(fragmented.rule_id))
        hit = hermes.lookup(key("10.0.1.1"))
        assert hit is not None and hit.action.port == 3


class TestUnpartitionRemovesStaleFragments:
    """Figure 6: restoration must delete the partition fragments, not just
    add the original back — otherwise stale fragments survive the logical
    rule's deletion."""

    def test_no_stale_fragments_after_blocker_delete(self):
        hermes = make_hermes(lowest_priority_fastpath=False)
        blocker = rule("192.168.1.0/26", 99, port=1)
        hermes.apply(FlowMod.add(blocker))
        hermes.rule_manager.migrate(0.0)
        cut = rule("192.168.1.0/24", 10, port=2)
        hermes.apply(FlowMod.add(cut))
        fragment_count = len(hermes.partition_map.fragment_ids(cut.rule_id))
        assert fragment_count >= 2
        occupancy_before = hermes.occupancy()
        hermes.apply(FlowMod.delete(blocker.rule_id))
        # blocker gone (-1), fragments replaced by the single original
        # (-fragment_count + 1).
        assert hermes.occupancy() == occupancy_before - 1 - fragment_count + 1
        # And deleting the logical rule now leaves nothing behind.
        hermes.apply(FlowMod.delete(cut.rule_id))
        assert hermes.lookup(key("192.168.1.200")) is None
        assert hermes.lookup(key("192.168.1.5")) is None
        assert hermes.occupancy() == 0
