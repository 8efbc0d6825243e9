"""Tests for the Varys simulator: controller, TE app, end-to-end runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_installer
from repro.simulator import (
    MetricsCollector,
    ProactiveTeApp,
    SdnController,
    Simulation,
    SimulationConfig,
    TeAppConfig,
    flow_match,
    flow_rule_priority,
)
from repro.simulator.controller import background_rules
from repro.tcam import Action, Rule, ideal_switch, pica8_p3290
from repro.topology import FatTreeSpec, PathProvider, build_fat_tree, hosts, path_links
from repro.traffic import FlowSpec, flows_of, generate_jobs

from .te_plan_oracle import rescan_plan


@pytest.fixture(scope="module")
def small_tree():
    return build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))


def naive_factory(switch_name):
    return make_installer("naive", pica8_p3290())


def ideal_factory(switch_name):
    return make_installer("naive", ideal_switch())


class TestMetricsCollector:
    def test_fct_accounting(self):
        metrics = MetricsCollector()
        spec = FlowSpec(source="a", destination="b", size=100.0, start_time=1.0)
        metrics.flow_started(spec, 1.0)
        metrics.flow_finished(spec.flow_id, 3.5)
        assert metrics.fcts() == [pytest.approx(2.5)]

    def test_incomplete_flow_has_no_fct(self):
        metrics = MetricsCollector()
        spec = FlowSpec(source="a", destination="b", size=100.0, start_time=0.0)
        metrics.flow_started(spec, 0.0)
        assert metrics.fcts() == []
        with pytest.raises(ValueError):
            metrics.flow_records()[0].fct

    def test_jct_spans_job_flows(self):
        metrics = MetricsCollector()
        flows = [
            FlowSpec(source="a", destination="b", size=1.0, start_time=0.0, job_id=9),
            FlowSpec(source="c", destination="d", size=1.0, start_time=1.0, job_id=9),
        ]
        for flow in flows:
            metrics.flow_started(flow, flow.start_time)
        metrics.flow_finished(flows[0].flow_id, 2.0)
        metrics.flow_finished(flows[1].flow_id, 5.0)
        assert metrics.jcts() == {9: pytest.approx(5.0)}

    def test_jobs_with_incomplete_flows_excluded(self):
        metrics = MetricsCollector()
        flows = [
            FlowSpec(source="a", destination="b", size=1.0, start_time=0.0, job_id=9),
            FlowSpec(source="c", destination="d", size=1.0, start_time=0.0, job_id=9),
        ]
        for flow in flows:
            metrics.flow_started(flow, 0.0)
        metrics.flow_finished(flows[0].flow_id, 1.0)
        assert metrics.jcts() == {}


class TestController:
    def test_install_path_touches_all_switches(self, small_tree):
        controller = SdnController(small_tree, naive_factory, control_rtt=1e-3)
        provider = PathProvider(small_tree)
        flow = FlowSpec(
            source="host-0-0-0", destination="host-1-0-0", size=1e6, start_time=0.0
        )
        path = provider.shortest_path(flow.source, flow.destination)
        outcome = controller.install_path(flow, path, now=0.0)
        assert len(outcome.per_switch_rits) == len(path) - 2  # minus two hosts
        assert outcome.ready_time > 1e-3  # at least the RTT

    def test_remove_flow_rules(self, small_tree):
        controller = SdnController(small_tree, naive_factory)
        provider = PathProvider(small_tree)
        flow = FlowSpec(
            source="host-0-0-0", destination="host-1-0-0", size=1e6, start_time=0.0
        )
        path = provider.shortest_path(flow.source, flow.destination)
        controller.install_path(flow, path, now=0.0)
        assert controller.has_rules_for(flow.flow_id)
        controller.remove_flow_rules(flow, path, now=1.0)
        assert not controller.has_rules_for(flow.flow_id)

    def test_prefill_sets_occupancy(self, small_tree):
        controller = SdnController(small_tree, naive_factory)
        controller.prefill_switches(100)
        agent = next(iter(controller.agents.values()))
        assert agent.installer.occupancy() == 100
        assert agent.stats.actions == 0  # warm-up is not measured

    def test_background_rules_are_the_dotted_quad_slash24s(self):
        count = 70_000  # past 65,536, where the second octet wraps
        rules = background_rules(count)
        expected = [
            Rule.from_prefix(
                f"10.{(index // 256) % 256}.{index % 256}.0/24",
                10 + (index % 80),
                Action.output((index % 8) + 1),
            )
            for index in range(count)
        ]
        assert [(r.match, r.priority, r.action) for r in rules] == [
            (r.match, r.priority, r.action) for r in expected
        ]
        # Fresh ids, one per rule, in order.
        assert [r.rule_id - rules[0].rule_id for r in rules] == list(range(count))

    def test_flow_match_unique_and_exact(self):
        a = FlowSpec(source="a", destination="b", size=1.0, start_time=0.0)
        b = FlowSpec(source="a", destination="b", size=1.0, start_time=0.0)
        assert flow_match(a) != flow_match(b)
        assert flow_match(a).matches(a.flow_id)
        assert not flow_match(a).matches(b.flow_id)

    def test_te_priority_above_background_band(self):
        flow = FlowSpec(source="a", destination="b", size=1.0, start_time=0.0)
        assert flow_rule_priority(flow) >= 100


class TestTeApp:
    def test_no_moves_below_threshold(self, small_tree):
        provider = PathProvider(small_tree)
        app = ProactiveTeApp(provider, TeAppConfig(utilization_threshold=0.9))
        flow = FlowSpec(
            source="host-0-0-0", destination="host-1-0-0", size=1e9, start_time=0.0
        )
        path = provider.shortest_path(flow.source, flow.destination)
        utilization = {link: 0.5 for link in path_links(path)}
        moves = app.plan(
            {flow.flow_id: flow},
            {flow.flow_id: path},
            {flow.flow_id: 5e8},
            utilization,
            {link: 1e9 for link in path_links(path)},
        )
        assert moves == []

    def test_moves_congested_flow_to_cold_path(self, small_tree):
        provider = PathProvider(small_tree)
        app = ProactiveTeApp(provider, TeAppConfig(utilization_threshold=0.7))
        flow = FlowSpec(
            source="host-0-0-0", destination="host-3-0-0", size=1e9, start_time=0.0
        )
        path = provider.paths(flow.source, flow.destination)[0]
        capacities = {
            tuple(sorted((a, b))): data["capacity"]
            for a, b, data in small_tree.edges(data=True)
        }
        # Congest the transit links only: the first and last links (host
        # access) are shared by every alternative path and unavoidable.
        transit = path_links(path)[1:-1]
        utilization = {link: 0.95 for link in transit}
        moves = app.plan(
            {flow.flow_id: flow},
            {flow.flow_id: path},
            {flow.flow_id: 9.5e8},
            utilization,
            capacities,
        )
        assert len(moves) == 1
        assert moves[0].new_path != path

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_plan_matches_rescan_oracle(self, small_tree, data):
        """The indexed, cost-caching planner returns exactly the reroutes of
        the rescanning oracle: same flows, same paths, same order."""
        provider = PathProvider(small_tree)
        threshold = data.draw(st.sampled_from([0.5, 0.7]), label="threshold")
        config = TeAppConfig(
            utilization_threshold=threshold,
            max_moves_per_epoch=data.draw(st.sampled_from([0, 1, 16]), label="moves"),
            improvement_margin=data.draw(st.sampled_from([0.0, 0.05]), label="margin"),
        )
        app = ProactiveTeApp(provider, config)
        servers = sorted(hosts(small_tree))
        # Few endpoint pairs, so many flows share one current path.
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(servers), st.sampled_from(servers)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                min_size=1,
                max_size=3,
            ),
            label="pairs",
        )
        # Equal rates are common: ties must break in current_paths order.
        rate_values = st.sampled_from([0.0, 1e8, 2e8, 5e8]) | st.floats(0.0, 1e9)
        flows, current_paths, rates = {}, {}, {}
        for source, destination in data.draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=32), label="flows"
        ):
            flow = FlowSpec(source, destination, size=1e9, start_time=0.0)
            flows[flow.flow_id] = flow
            rates[flow.flow_id] = data.draw(rate_values)
            shape = data.draw(st.sampled_from(["path", "path", "pending", "doubled"]))
            if shape == "pending":
                continue  # in flight: planned around, never moved
            paths = provider.paths(source, destination)
            path = paths[data.draw(st.integers(0, len(paths) - 1))]
            if shape == "doubled":
                # Walk the first transit link back and forth: the path
                # lists that link three times.
                path = path[:3] + path[1:]
            current_paths[flow.flow_id] = path
        # Load the links the flows can use; a link left out reads as idle.
        links = sorted(
            {link for pair in pairs for path in provider.paths(*pair) for link in path_links(path)}
        )
        levels = st.sampled_from([None, 0.0, threshold, threshold + 1e-9, 0.8, 0.95, 1.3])
        utilization = {}
        for link in links:
            level = data.draw(levels | st.floats(0.0, 1.5))
            if level is not None:
                utilization[link] = level
        capacities = {link: data.draw(st.sampled_from([1e9, 1e9, 1e9, 0.0])) for link in links}
        moves = app.plan(flows, current_paths, rates, utilization, capacities)
        assert moves == rescan_plan(app, flows, current_paths, rates, utilization, capacities)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TeAppConfig(epoch=0)
        with pytest.raises(ValueError):
            TeAppConfig(utilization_threshold=1.5)
        with pytest.raises(ValueError):
            TeAppConfig(max_moves_per_epoch=-1)


class TestEndToEnd:
    def make_flows(self, graph, job_count=10):
        return flows_of(
            generate_jobs(
                hosts(graph),
                job_count=job_count,
                arrival_rate=4.0,
                rng=np.random.default_rng(0),
            )
        )

    def test_all_flows_complete(self, small_tree):
        flows = self.make_flows(small_tree)
        sim = Simulation(
            small_tree,
            flows,
            ideal_factory,
            SimulationConfig(baseline_occupancy=0, max_time=1e4),
        )
        metrics = sim.run()
        assert len(metrics.fcts()) == len(flows)
        assert all(fct > 0 for fct in metrics.fcts())

    def test_byte_conservation(self, small_tree):
        """Total delivered bytes over total FCT-weighted rate is consistent:
        every flow's FCT must be at least size / fastest-possible-rate."""
        flows = self.make_flows(small_tree, job_count=5)
        sim = Simulation(
            small_tree,
            flows,
            ideal_factory,
            SimulationConfig(baseline_occupancy=0, max_time=1e4),
        )
        metrics = sim.run()
        for record in metrics.flow_records():
            lower_bound = record.spec.size * 8.0 / 1e9  # line rate
            assert record.fct >= lower_bound * (1 - 1e-9)

    def test_realistic_switch_slows_rit_not_correctness(self, small_tree):
        flows = self.make_flows(small_tree)
        config = SimulationConfig(
            te=TeAppConfig(epoch=0.2, utilization_threshold=0.5),
            baseline_occupancy=500,
            max_time=1e4,
            initial_path_policy="static",
        )
        ideal_metrics = Simulation(small_tree, flows, ideal_factory, config).run()
        naive_metrics = Simulation(small_tree, flows, naive_factory, config).run()
        assert len(naive_metrics.fcts()) == len(flows)
        if naive_metrics.rits() and ideal_metrics.rits():
            assert np.median(naive_metrics.rits()) > np.median(ideal_metrics.rits())

    def test_hermes_bounds_rit_in_simulation(self, small_tree):
        flows = self.make_flows(small_tree)
        config = SimulationConfig(
            te=TeAppConfig(epoch=0.2, utilization_threshold=0.5),
            baseline_occupancy=500,
            max_time=1e4,
            initial_path_policy="static",
        )
        hermes_factory = lambda sw: make_installer("hermes", pica8_p3290())
        metrics = Simulation(small_tree, flows, hermes_factory, config).run()
        rits = metrics.rits()
        assert rits, "the TE app should have issued reconfigurations"
        # Installation (excluding queueing) is bounded; queueing can stack a
        # few guaranteed installs, so allow a small multiple.
        assert np.percentile(rits, 95) < 5 * 5e-3

    def test_static_policy_triggers_more_reroutes(self, small_tree):
        flows = self.make_flows(small_tree)
        base = dict(
            te=TeAppConfig(epoch=0.2, utilization_threshold=0.5),
            baseline_occupancy=0,
            max_time=1e4,
        )
        hashed = Simulation(
            small_tree, flows, ideal_factory,
            SimulationConfig(initial_path_policy="ecmp-hash", **base),
        ).run()
        static = Simulation(
            small_tree, flows, ideal_factory,
            SimulationConfig(initial_path_policy="static", **base),
        ).run()
        assert static.total_reroutes() >= hashed.total_reroutes()

    def test_max_time_cutoff(self, small_tree):
        flows = self.make_flows(small_tree)
        sim = Simulation(
            small_tree,
            flows,
            ideal_factory,
            SimulationConfig(baseline_occupancy=0, max_time=0.5),
        )
        metrics = sim.run()
        assert sim.now <= 0.5 + 1e-9
        assert all(
            record.finish_time is None or record.finish_time <= 0.5
            for record in metrics.flow_records()
        )

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(initial_path_policy="random")
