"""Tests for link-failure injection and blackhole accounting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import ideal_switch, pica8_p3290
from repro.topology import FatTreeSpec, build_fat_tree, hosts, path_links
from repro.traffic import FlowSpec, flows_of, generate_jobs


@pytest.fixture(scope="module")
def tree():
    return build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))


def long_flow(graph, size=1e9):
    names = hosts(graph)
    return FlowSpec(
        source=names[0], destination=names[-1], size=size, start_time=0.0
    )


def failing_config(link, at_time=0.5, switch_scheme=("naive",)):
    return SimulationConfig(
        te=TeAppConfig(epoch=10.0),  # isolate the failure path from TE
        baseline_occupancy=500,
        max_time=1e4,
        link_failures=((at_time, link), ),
    )


def first_path_core_link(graph, flow):
    from repro.topology import PathProvider

    provider = PathProvider(graph)
    path = provider.ecmp_paths(flow.source, flow.destination)[flow.flow_id % 4]
    return path_links(path)[2]  # an agg<->core link


class TestFailureInjection:
    def test_flow_survives_failure_and_completes(self, tree):
        flow = long_flow(tree)
        link = first_path_core_link(tree, flow)
        factory = lambda name: make_installer("naive", ideal_switch())
        sim = Simulation(tree, [flow], factory, failing_config(link))
        metrics = sim.run()
        assert len(metrics.fcts()) == 1
        assert metrics.total_reroutes() >= 1

    def test_blackhole_time_recorded(self, tree):
        flow = long_flow(tree)
        link = first_path_core_link(tree, flow)
        factory = lambda name: make_installer("naive", pica8_p3290())
        sim = Simulation(tree, [flow], factory, failing_config(link))
        sim.run()
        assert sim.blackhole_time > 0

    def test_hermes_shrinks_blackhole_window(self, tree):
        flow = long_flow(tree)
        link = first_path_core_link(tree, flow)
        config = failing_config(link)
        naive_sim = Simulation(
            tree, [flow], lambda n: make_installer("naive", pica8_p3290()), config
        )
        naive_sim.run()
        hermes_sim = Simulation(
            tree, [flow], lambda n: make_installer("hermes", pica8_p3290()), config
        )
        hermes_sim.run()
        assert hermes_sim.blackhole_time < naive_sim.blackhole_time

    def test_failed_link_avoided_by_new_arrivals(self, tree):
        flow = long_flow(tree)
        link = first_path_core_link(tree, flow)
        late = FlowSpec(
            source=flow.source,
            destination=flow.destination,
            size=1e6,
            start_time=1.0,  # after the failure
        )
        factory = lambda name: make_installer("naive", ideal_switch())
        sim = Simulation(tree, [flow, late], factory, failing_config(link))
        sim.run()
        # Everyone completed despite the dead link.
        assert len(sim.metrics.fcts()) == 2

    def test_failure_before_any_flow(self, tree):
        flow = FlowSpec(
            source=hosts(tree)[0],
            destination=hosts(tree)[-1],
            size=1e6,
            start_time=1.0,
        )
        link = first_path_core_link(tree, flow)
        factory = lambda name: make_installer("naive", ideal_switch())
        sim = Simulation(
            tree, [flow], factory, failing_config(link, at_time=0.1)
        )
        metrics = sim.run()
        assert len(metrics.fcts()) == 1
        assert sim.blackhole_time == 0.0  # nothing was in flight


class TestTeAfterFailure:
    def test_planner_never_moves_a_flow_onto_a_dead_link(self, tree):
        # Two of agg-0-0's uplinks die at t = 1 s under a TE app that
        # replans every 0.2 s.  A dead link has zero capacity, and the
        # planner must cost it as unusable, not as idle.
        dead = {("agg-0-0", "core-0"), ("agg-0-0", "core-1")}
        flows = flows_of(
            generate_jobs(hosts(tree), job_count=40, rng=np.random.default_rng(7))
        )
        # Explicit ids: ECMP hashes on them.
        flows = [replace(flow, flow_id=index) for index, flow in enumerate(flows)]
        config = SimulationConfig(
            te=TeAppConfig(epoch=0.2, utilization_threshold=0.5),
            link_failures=tuple((1.0, link) for link in sorted(dead)),
        )
        factory = lambda name: make_installer("naive", ideal_switch())
        sim = Simulation(tree, flows, factory, config)
        plan = sim.app.plan
        planned = []

        def recording_plan(*args, **kwargs):
            moves = plan(*args, **kwargs)
            planned.extend((kwargs["now"], move.new_path) for move in moves)
            return moves

        sim.app.plan = recording_plan
        sim.run()
        assert any(now > 1.0 for now, _path in planned)
        for _now, path in planned:
            assert not {tuple(sorted(link)) for link in path_links(path)} & dead
