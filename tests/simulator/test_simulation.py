"""Tests for the Varys simulator: controller, TE app, end-to-end runs."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_installer
from repro.simulator import (
    FlowStore,
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
from repro.topology import (
    FatTreeSpec,
    PathProvider,
    abilene,
    build_fat_tree,
    hosts,
    path_links,
    pops,
)
from repro.traffic import FlowSpec, flows_of, generate_jobs

from .te_plan_oracle import rescan_plan


@pytest.fixture(scope="module")
def small_tree():
    return build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))


@pytest.fixture(scope="module")
def abilene_network():
    return abilene(link_capacity=1e9)


def store_of(graph, capacities=None):
    """A flow store over ``graph``'s links, with ``capacities`` overriding
    the graph's own."""
    links = {
        tuple(sorted((a, b))): data["capacity"] for a, b, data in graph.edges(data=True)
    }
    links.update(capacities or {})
    return FlowStore(links)


def utilization_of(store, utilization):
    """A ``{link: value}`` dict as plan's ``(link ids, values)``, in the
    dict's order."""
    return (
        np.array([store._link_id[link] for link in utilization], dtype=np.intp),
        np.array(list(utilization.values()), dtype=np.float64),
    )


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
        outcome = controller.install_path(flow, path, now=0.0)
        assert len(outcome.rules) == len(path) - 2
        for switch, _rule_id in outcome.rules:
            assert controller.agents[switch].installer.occupancy() == 1
        controller.remove_flow_rules(outcome.rules, now=1.0)
        for agent in controller.agents.values():
            assert agent.installer.occupancy() == 0

    def test_prefill_sets_occupancy(self, small_tree):
        controller = SdnController(small_tree, naive_factory)
        controller.prefill_switches(100)
        agent = next(iter(controller.agents.values()))
        assert agent.installer.occupancy() == 100
        assert agent.stats.actions == 0  # warm-up is not measured

    def test_prefill_past_capacity_writes_nothing(self, small_tree):
        controller = SdnController(small_tree, naive_factory)
        capacity = pica8_p3290().capacity
        with pytest.raises(ValueError, match=f"capacity {capacity}"):
            controller.prefill_switches(capacity + 1)
        assert all(
            agent.installer.occupancy() == 0 for agent in controller.agents.values()
        )

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
        store = store_of(small_tree)
        app = ProactiveTeApp(provider, store, TeAppConfig(utilization_threshold=0.9))
        flow = FlowSpec(
            source="host-0-0-0", destination="host-1-0-0", size=1e9, start_time=0.0
        )
        path = provider.shortest_path(flow.source, flow.destination)
        utilization = {link: 0.5 for link in path_links(path)}
        moves = app.plan(
            [flow.flow_id], [store.intern(path)], [5e8], utilization_of(store, utilization)
        )
        assert moves == []

    def test_moves_congested_flow_to_cold_path(self, small_tree):
        provider = PathProvider(small_tree)
        store = store_of(small_tree)
        app = ProactiveTeApp(provider, store, TeAppConfig(utilization_threshold=0.7))
        flow = FlowSpec(
            source="host-0-0-0", destination="host-3-0-0", size=1e9, start_time=0.0
        )
        path = provider.paths(flow.source, flow.destination)[0]
        # Congest the transit links only: the first and last links (host
        # access) are shared by every alternative path and unavoidable.
        transit = path_links(path)[1:-1]
        utilization = {link: 0.95 for link in transit}
        moves = app.plan(
            [flow.flow_id], [store.intern(path)], [9.5e8], utilization_of(store, utilization)
        )
        assert len(moves) == 1
        assert moves[0].new_path != path

    def test_negative_residue_is_not_padded_away(self):
        """A path shorter than the planner's widest path keeps its own
        cost: links a move left slightly negative do not read as 0.0."""
        graph = nx.Graph()
        for a, b in [("a", "b"), ("a", "c"), ("c", "f"), ("f", "b"), ("a", "d"), ("d", "e"), ("e", "b")]:
            graph.add_edge(a, b, capacity=1e9)
        provider = PathProvider(graph)
        store = store_of(graph)
        app = ProactiveTeApp(provider, store, TeAppConfig(utilization_threshold=0.7))
        flow = FlowSpec(source="a", destination="b", size=1e9, start_time=0.0)
        current = ("a", "d", "e", "b")
        utilization = {link: 0.95 for link in path_links(current)}
        utilization.update({link: -1e-9 for link in path_links(("a", "c", "f", "b"))})
        utilization[("a", "b")] = -2e-9
        args = (
            [flow.flow_id], [store.intern(current)], [1e8], utilization_of(store, utilization)
        )
        moves = app.plan(*args)
        assert [move.new_path for move in moves] == [("a", "b")]
        assert moves == rescan_plan(app, *args)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_plan_matches_rescan_oracle(self, small_tree, data):
        """The table-driven planner returns exactly the reroutes of the
        rescanning oracle: same flows, same paths, same order.  The fat
        tree's candidates of one pair all have the same length."""
        self.check_plan_against_oracle(small_tree, sorted(hosts(small_tree)), data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_plan_matches_rescan_oracle_on_abilene(self, abilene_network, data):
        """As above on Abilene, whose k shortest paths have mixed lengths,
        so the planner's link rows are padded."""
        self.check_plan_against_oracle(abilene_network, pops(abilene_network), data)

    @staticmethod
    def check_plan_against_oracle(graph, servers, data):
        provider = PathProvider(graph)
        threshold = data.draw(st.sampled_from([0.5, 0.7]), label="threshold")
        config = TeAppConfig(
            utilization_threshold=threshold,
            max_moves_per_epoch=data.draw(st.sampled_from([0, 1, 16]), label="moves"),
            improvement_margin=data.draw(st.sampled_from([0.0, 0.05]), label="margin"),
        )
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
        # Load the links the flows can use; a link left out reads as idle.
        links = sorted(
            {link for pair in pairs for path in provider.paths(*pair) for link in path_links(path)}
        )
        capacities = {link: data.draw(st.sampled_from([1e9, 1e9, 1e9, 0.0])) for link in links}
        store = store_of(graph, capacities)
        app = ProactiveTeApp(provider, store, config)
        # Equal rates are common: ties must break in admission order.
        rate_values = st.sampled_from([0.0, 1e8, 2e8, 5e8]) | st.floats(0.0, 1e9)
        flow_ids, path_ids, rates = [], [], []
        for source, destination in data.draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=32), label="flows"
        ):
            flow = FlowSpec(source, destination, size=1e9, start_time=0.0)
            rate = data.draw(rate_values)
            if data.draw(st.sampled_from(["path", "path", "pending"])) == "pending":
                continue  # in flight: planned around, never moved
            paths = provider.paths(source, destination)
            path = paths[data.draw(st.integers(0, len(paths) - 1))]
            flow_ids.append(flow.flow_id)
            path_ids.append(store.intern(path))
            rates.append(rate)
        # A slightly negative level is the residue a move's subtraction
        # can leave: a path's cost must not round it up to 0.0.
        levels = st.sampled_from(
            [None, -1e-9, 0.0, threshold, threshold + 1e-9, 0.8, 0.95, 1.3]
        )
        utilization = {}
        for link in links:
            level = data.draw(levels | st.floats(0.0, 1.5))
            if level is not None:
                utilization[link] = level
        args = (flow_ids, path_ids, rates, utilization_of(store, utilization))
        assert app.plan(*args) == rescan_plan(app, *args)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TeAppConfig(epoch=0)
        with pytest.raises(ValueError):
            TeAppConfig(utilization_threshold=1.5)
        with pytest.raises(ValueError):
            TeAppConfig(max_moves_per_epoch=-1)
        for bad in (
            dict(epoch=math.nan),
            dict(epoch=math.inf),
            dict(improvement_margin=-1.0),
            dict(improvement_margin=math.nan),
            dict(max_moves_per_epoch=2.5),
        ):
            with pytest.raises(ValueError):
                TeAppConfig(**bad)


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

    def test_same_flows_in_one_process_give_the_same_metrics(self, small_tree):
        # Rule ids come from a process-global counter, so the second run
        # installs rules with other ids; results must not depend on them.
        # What does move between in-process runs is the flow ids of
        # *regenerated* workloads (ECMP hashes on them), so both runs
        # share one list of FlowSpecs.
        from repro.experiments.common import default_hermes_config, installer_factory

        flows = self.make_flows(small_tree)
        config = SimulationConfig(te=TeAppConfig(epoch=0.25), max_time=1e4)
        runs = []
        for _ in range(2):
            factory = installer_factory(
                "hermes", "pica8-p3290", hermes_config=default_hermes_config()
            )
            metrics = Simulation(small_tree, flows, factory, config).run()
            runs.append((metrics.rits(), metrics.fcts(), metrics.jcts()))
        assert runs[0][0], "the run installed no rules"
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize(
        "bad",
        [
            dict(baseline_occupancy=-1),
            dict(max_time=math.nan),
            dict(max_time=-1.0),
            dict(control_rtt=math.nan),
            dict(link_failures=((math.inf, ("a", "b")),)),
            dict(link_failures=((math.nan, ("a", "b")),)),
            dict(baseline_occupancy=ideal_switch().capacity + 1),
        ],
        ids=[
            "negative-occupancy", "nan-max-time", "negative-max-time",
            "nan-control-rtt", "inf-failure-time", "nan-failure-time",
            "occupancy-over-capacity",
        ],
    )
    def test_bad_config_rejected(self, bad, small_tree):
        with pytest.raises(ValueError):
            Simulation(small_tree, [], ideal_factory, SimulationConfig(**bad))
