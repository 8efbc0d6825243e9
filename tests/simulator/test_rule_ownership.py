"""Each installed flow rule is deleted exactly once.

A flow owns the rules its install outcome delivered (``InstallOutcome.
rules``); the simulation keeps them in ``Simulation.flow_rules`` while
they carry the flow, and deletes them by id when the flow moves on or
completes.  So after a fault-free run in which every flow completes,
every switch holds exactly its prefill again.  (A lossy channel can drop
a delete and legitimately leave a rule behind; no lossy run is checked.)
"""

import pytest

from repro.baselines import make_installer
from repro.experiments.common import (
    QUICK_SCALE,
    WorkloadScale,
    default_hermes_config,
    facebook_workload,
    installer_factory,
    isp_workload,
    te_simulation_config,
)
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import ideal_switch
from repro.topology import FatTreeSpec, PathProvider, build_fat_tree
from repro.traffic import FlowSpec

from .test_controller_batching import installed_ids


def quick_fig01():
    graph, flows, _short, _long = facebook_workload(QUICK_SCALE)
    return graph, flows, te_simulation_config(QUICK_SCALE)


def canned_fig08_geant():
    scale = WorkloadScale(isp_flow_duration=3.0)
    graph, flows = isp_workload("geant", scale)
    return graph, flows, te_simulation_config(scale, control_rtt=10e-3)


@pytest.mark.parametrize("scheme", ["naive", "hermes", "tango", "espres"])
@pytest.mark.parametrize("workload", [quick_fig01, canned_fig08_geant])
def test_tables_return_to_prefill(workload, scheme):
    graph, flows, config = workload()
    factory = installer_factory(
        scheme,
        "pica8-p3290",
        default_hermes_config() if scheme == "hermes" else None,
        seed=100,
    )
    simulation = Simulation(graph, list(flows), factory, config)
    metrics = simulation.run()
    assert len(metrics.fcts()) == len(flows)
    assert metrics.rits()  # the TE app did move flows
    extra = {
        name: agent.installer.occupancy() - config.baseline_occupancy
        for name, agent in simulation.controller.agents.items()
    }
    assert {name: count for name, count in extra.items() if count} == {}
    assert simulation.flow_rules == {}


class TestReroute:
    """Drive one flow's handlers directly: a reactive start on one path,
    then a move to another path through the same edge switches."""

    @pytest.fixture
    def setup(self):
        tree = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
        flow = FlowSpec(
            source="host-0-0-0", destination="host-1-0-0",
            size=1e6, start_time=0.0,
        )
        config = SimulationConfig(
            te=TeAppConfig(epoch=1e9),
            baseline_occupancy=0,
            routing_mode="reactive",
        )
        simulation = Simulation(
            tree, [flow], lambda name: make_installer("naive", ideal_switch()),
            config,
        )
        old_path, new_path = PathProvider(tree).paths(
            flow.source, flow.destination
        )[:2]
        simulation.metrics.flow_started(flow, 0.0)
        old = simulation.controller.install_path(flow, old_path, 0.0)
        simulation._start_reactive_flow((flow, old_path, old.rules))
        new = simulation.controller.install_path(flow, new_path, 0.0)
        shared = {switch for switch, _ in old.rules} & {
            switch for switch, _ in new.rules
        }
        assert shared  # both paths leave and enter through the same edges
        return simulation, flow, new_path, old, new

    def test_activation_deletes_the_old_rule_ids(self, setup):
        simulation, flow, new_path, old, new = setup
        simulation._activate_path((flow.flow_id, new_path, new.rules))
        assert simulation.flow_rules == {flow.flow_id: new.rules}
        for switch, rule_id in old.rules:
            assert rule_id not in installed_ids(simulation.controller, switch)
        for switch, rule_id in new.rules:
            assert rule_id in installed_ids(simulation.controller, switch)

    def test_completion_before_activation_deletes_the_new_rules(self, setup):
        simulation, flow, new_path, _old, new = setup
        simulation._complete_flow(flow.flow_id)
        simulation._activate_path((flow.flow_id, new_path, new.rules))
        assert simulation.flow_rules == {}
        for agent in simulation.controller.agents.values():
            assert agent.installer.occupancy() == 0
