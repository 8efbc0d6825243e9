"""Tests for the controller's per-switch FlowMod batching (install_paths)."""

import pytest

from repro.baselines import make_installer
from repro.simulator import SdnController
from repro.tcam import pica8_p3290
from repro.topology import FatTreeSpec, PathProvider, build_fat_tree, path_switches
from repro.traffic import FlowSpec


@pytest.fixture(scope="module")
def tree():
    return build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))


def make_controller(tree, scheme="naive"):
    return SdnController(
        tree,
        lambda name: make_installer(scheme, pica8_p3290()),
        control_rtt=1e-3,
    )


def installed_ids(controller, switch):
    """Ids of every rule physically installed on ``switch``."""
    tables = controller.agents[switch].installer.tables()
    return {rule.rule_id for rules in tables.values() for rule in rules}


def assignments_for(tree, count):
    provider = PathProvider(tree)
    flows = [
        FlowSpec(
            source=f"host-0-0-{index % 2}",
            destination=f"host-{1 + index % 3}-1-0",
            size=1e6,
            start_time=0.0,
        )
        for index in range(count)
    ]
    return [
        (flow, provider.shortest_path(flow.source, flow.destination))
        for flow in flows
    ]


class TestInstallPaths:
    def test_outcomes_align_with_assignments(self, tree):
        controller = make_controller(tree)
        assignments = assignments_for(tree, 5)
        outcomes = controller.install_paths(assignments, now=0.0)
        assert len(outcomes) == 5
        for (flow, path), outcome in zip(assignments, outcomes):
            # One RIT per switch on the path (paths have 2 hosts).
            assert len(outcome.per_switch_rits) == len(path) - 2
            assert outcome.ready_time > 0.0
            # The outcome owns one delivered rule per switch of its path,
            # and each is installed where it says.
            switches = [switch for switch, _rule_id in outcome.rules]
            assert sorted(switches) == sorted(path_switches(path, tree))
            for switch, rule_id in outcome.rules:
                assert rule_id in installed_ids(controller, switch)
        rule_ids = [rule_id for o in outcomes for _switch, rule_id in o.rules]
        assert len(set(rule_ids)) == len(rule_ids)

    def test_batching_shares_switch_queues(self, tree):
        """Flows crossing the same switch are serialized there: later batch
        members see queueing in their per-switch RITs."""
        controller = make_controller(tree)
        assignments = assignments_for(tree, 6)
        outcomes = controller.install_paths(assignments, now=0.0)
        firsts = outcomes[0].per_switch_rits
        lasts = outcomes[-1].per_switch_rits
        assert max(lasts) > max(firsts)

    def test_ready_time_is_max_over_switches(self, tree):
        controller = make_controller(tree)
        assignments = assignments_for(tree, 1)
        outcome = controller.install_paths(assignments, now=2.0)[0]
        agent_finish = max(
            agent.busy_until for agent in controller.agents.values()
        )
        assert outcome.ready_time == pytest.approx(
            agent_finish + controller.control_rtt / 2
        )

    def test_empty_batch(self, tree):
        controller = make_controller(tree)
        assert controller.install_paths([], now=0.0) == []

    def test_batch_reaches_reordering_installers(self, tree):
        """With a Tango backend, batched TE rules aggregate: the physical
        occupancy on shared switches is below the logical rule count."""
        controller = make_controller(tree, scheme="tango")
        assignments = assignments_for(tree, 8)
        controller.install_paths(assignments, now=0.0)
        edge = controller.agents["edge-0-0"].installer
        assert edge.logical_rule_count() >= edge.occupancy()
