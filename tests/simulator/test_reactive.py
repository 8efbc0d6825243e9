"""Tests for the reactive (packet-in) routing mode."""

import numpy as np
import pytest

from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import ideal_switch, pica8_p3290
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import FlowSpec


@pytest.fixture(scope="module")
def tree():
    return build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))


def small_flows(graph, count=10):
    names = hosts(graph)
    return [
        FlowSpec(
            source=names[index % len(names)],
            destination=names[(index + 7) % len(names)],
            size=1e6,
            start_time=0.01 * index,
        )
        for index in range(count)
    ]


def run(graph, flows, scheme, switch, mode):
    config = SimulationConfig(
        te=TeAppConfig(epoch=10.0),  # effectively disable TE: isolate setup cost
        baseline_occupancy=500,
        max_time=1e4,
        routing_mode=mode,
    )
    factory = lambda name: make_installer(scheme, switch())
    return Simulation(graph, list(flows), factory, config).run()


class TestReactiveMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(routing_mode="hybrid")

    def test_reactive_flows_complete(self, tree):
        flows = small_flows(tree)
        metrics = run(tree, flows, "naive", ideal_switch, "reactive")
        assert len(metrics.fcts()) == len(flows)

    def test_reactive_records_setup_rits(self, tree):
        flows = small_flows(tree)
        metrics = run(tree, flows, "naive", pica8_p3290, "reactive")
        # Every flow triggered installs along its path (>= 2 switches).
        assert len(metrics.rits()) >= 2 * len(flows)

    def test_startup_latency_inflates_short_flow_fct(self, tree):
        flows = small_flows(tree)
        proactive = run(tree, flows, "naive", pica8_p3290, "proactive")
        reactive = run(tree, flows, "naive", pica8_p3290, "reactive")
        # 1 MB flows move in ~8 ms at 1 Gbps; reactive setup against a
        # 500-entry table adds tens of milliseconds per flow.
        assert np.median(reactive.fcts()) > np.median(proactive.fcts()) * 1.5

    def test_hermes_shrinks_reactive_startup_penalty(self, tree):
        flows = small_flows(tree)
        naive = run(tree, flows, "naive", pica8_p3290, "reactive")
        hermes = run(tree, flows, "hermes", pica8_p3290, "reactive")
        assert np.median(hermes.fcts()) < np.median(naive.fcts())

    def test_reactive_flow_rules_cleaned_up(self, tree):
        flows = small_flows(tree, count=4)
        config = SimulationConfig(
            te=TeAppConfig(epoch=10.0),
            baseline_occupancy=0,
            max_time=1e4,
            routing_mode="reactive",
        )
        factory = lambda name: make_installer("naive", ideal_switch())
        simulation = Simulation(tree, flows, factory, config)
        metrics = simulation.run()
        assert len(metrics.fcts()) == len(flows)
        # Each flow's setup rules were owned, then deleted at completion.
        assert simulation.flow_rules == {}
        for agent in simulation.controller.agents.values():
            assert agent.installer.occupancy() == 0
        assert sum(
            agent.stats.actions for agent in simulation.controller.agents.values()
        ) > 0
