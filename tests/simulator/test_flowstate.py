"""Tests for the columnar flow-state engine.

Three layers of evidence that the simulator's :class:`FlowStore` data
path is exact:

* hypothesis differentials pinning the path-class fair share
  *bit-identical* (``==``, no tolerance) to the dict reference
  :func:`max_min_fair_rates`: on random workloads, and after every step
  of random store churn (adds of many flows per path, removes, reroutes,
  link failures) over integer capacities that force equal-share ties;
* hard cases of the live fill state, bit-identical to the reference: a
  class's first member leaving flips two tied links, ``set_path`` moves
  a class earlier, compaction renumbers rows mid-churn, and a path that
  raises leaves the live counts as they were;
* FlowStore unit tests for the row lifecycle (stable compaction, path
  churn, flags, link failure) checked against the dict references;
* whole-simulation digests: arrival/completion workloads, TE, link
  failures and same-instant arrival bursts (the batched-recompute fast
  path) must reproduce results pinned when a per-flow-object backend
  still ran beside the columnar one and both agreed exactly.
"""

import hashlib
import json
import math
import os
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.scheduler import EventScheduler
from repro.simulator import (
    FlowStore,
    Simulation,
    UNCONSTRAINED_RATE,
    max_min_fair_rates,
)
from repro.simulator.flowstate import _Filling
from repro.topology.routing import path_links
from repro.traffic.flows import FlowSpec

from tests.engine.test_parity import _run_script

LINKS = [
    ("a", "b"),
    ("b", "c"),
    ("c", "d"),
    ("a", "d"),
    ("b", "d"),
    ("a", "c"),
]


def spec(flow_id, size=1e6, start=0.0, src="h0", dst="h1"):
    return FlowSpec(
        source=src, destination=dst, size=size, start_time=start,
        flow_id=flow_id,
    )


def store_rates(flow_paths, capacities):
    """``FlowStore.recompute`` rates of node paths, keyed by flow id."""
    store = FlowStore(capacities)
    for flow_id, path in flow_paths.items():
        store.add(spec(flow_id), path)
    store.recompute()
    return {
        flow_id: float(store.rate[store.row(flow_id)])
        for flow_id in store.flow_ids()
    }


def live_state(store):
    """A copy of the store's live fill state."""
    return (
        list(store._link_flows),
        [dict(classes) for classes in store._link_classes],
        dict(store._live_links),
        list(store._class_size),
        [list(members) for members in store._members],
        list(store._head),
    )


def assert_live_state_recounted(store):
    """The store's live fill state equals a recount from its active rows."""
    rows = store.active_rows().tolist()
    path_ids = store.path_id[rows].tolist()
    link_flows = [0] * len(store._link_flows)
    link_classes = [set() for _ in link_flows]
    first_row = {}
    for row, path_id in zip(rows, path_ids):
        first_row.setdefault(path_id, row)
        for link in store._path_links[path_id]:
            link_flows[link] += 1
            link_classes[link].add(path_id)
    assert store._link_flows == link_flows
    assert [set(classes) for classes in store._link_classes] == link_classes
    assert set(store._live_links) == {
        link for link, flows in enumerate(link_flows) if flows
    }
    sizes = Counter(path_ids)
    assert {
        path_id: size for path_id, size in enumerate(store._class_size) if size
    } == dict(sizes)
    assert {
        path_id: store._members[path_id][store._head[path_id]]
        for path_id in sizes
    } == first_row


def store_and_reference(store, capacities):
    """``(recompute rates, reference rates)`` of the store's active flows."""
    store.recompute()
    rates = {
        flow_id: float(store.rate[store.row(flow_id)])
        for flow_id in store.flow_ids()
    }
    reference = max_min_fair_rates(
        {
            flow_id: path_links(store.path(flow_id))
            for flow_id in store.flow_ids()
        },
        capacities,
    )
    return rates, reference


def reference_rates(flow_paths, capacities):
    return max_min_fair_rates(
        {
            flow_id: path_links(path)
            for flow_id, path in flow_paths.items()
        },
        capacities,
    )


# LINKS is the complete graph on a..d, so every node order is a path; a
# one-node path has no links (a same-host flow).
_NODE_PATH = st.permutations(["a", "b", "c", "d"]).flatmap(
    lambda nodes: st.integers(1, 4).map(lambda length: tuple(nodes[:length]))
)


class TestColumnarFairShareDifferential:
    """``FlowStore.recompute``'s path-class filling is bit-identical to
    the dict backend."""

    @settings(max_examples=200, deadline=None)
    @given(
        paths=st.lists(_NODE_PATH, max_size=25),
        capacities=st.fixed_dictionaries(
            {
                link: st.floats(
                    min_value=1e-3, max_value=1e12, allow_nan=False
                )
                for link in LINKS
            }
        ),
    )
    def test_bit_identical_on_random_workloads(self, paths, capacities):
        # Up to 25 flows drawn from 64 paths: flows often share a path.
        flow_paths = dict(enumerate(paths))
        reference = reference_rates(flow_paths, capacities)
        # exact float equality, no tolerance
        assert store_rates(flow_paths, capacities) == reference

    def test_large_classes_subtract_once_per_flow(self):
        # Classes of 16 flows and more take numpy's subtract reduction;
        # one product per link instead would round differently.
        # Interleaved classes of 17 to 35 flows.
        paths = [("a", "b", "c"), ("b", "c"), ("a", "b"), ("c", "d", "a")]
        flow_paths = {
            flow_id: paths[flow_id % 7 % 4] for flow_id in range(120)
        }
        capacities = {
            link: value * 1e9 / 3
            for link, value in zip(
                [tuple(sorted(link)) for link in LINKS], [7, 5, 11, 13, 1, 1]
            )
        }
        reference = reference_rates(flow_paths, capacities)
        assert store_rates(flow_paths, capacities) == reference

    def test_zero_capacity_bottleneck(self):
        flow_paths = {1: ("a", "b", "c"), 2: ("b", "c")}
        capacities = {LINKS[0]: 0.0, LINKS[1]: 10.0}
        reference = reference_rates(flow_paths, capacities)
        assert store_rates(flow_paths, capacities) == reference
        assert reference[1] == 0.0

    def test_empty_paths_get_sentinel_rate(self):
        rates = store_rates({1: ("a",), 2: ("a", "b")}, {LINKS[0]: 4.0})
        assert rates[1] == UNCONSTRAINED_RATE
        assert rates[2] == 4.0

    def test_no_flows(self):
        assert store_rates({}, {LINKS[0]: 1.0}) == {}


# Simple node paths over LINKS' nodes, one linkless (a same-host flow).
CHURN_PATHS = [
    ("a", "b"),
    ("a", "b", "c"),
    ("b", "c", "d"),
    ("a", "d"),
    ("a", "c", "d"),
    ("d", "b", "a", "c"),
    ("c", "d"),
    ("b",),
]

_CHURN_STEP = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, len(CHURN_PATHS) - 1),
        st.integers(1, 4),
    ),
    st.tuples(st.just("remove"), st.integers(0, 10_000)),
    st.tuples(
        st.just("set_path"),
        st.integers(0, 10_000),
        st.integers(0, len(CHURN_PATHS) - 1),
    ),
    st.tuples(st.just("fail_link"), st.integers(0, len(LINKS) - 1)),
)


class TestFlowStoreChurnDifferential:
    """``FlowStore.recompute`` equals the dict reference after every step
    of random churn."""

    # Capacities are small integers times a unit: equal integers force
    # equal-share ties, and the inexact units make the float rounding
    # depend on the tie-break and on the subtraction sequence.  Random
    # draws seldom make a tie's order change a float, so the examples
    # force it: two links carrying three flows each tie at an inexact
    # share (10/3, then 5/3), the rows reach the higher link id first,
    # and filling the other link first rounds the rates differently.  In
    # the first example a reroute creates the tie; in the second, a
    # remove does.
    @settings(max_examples=150, deadline=None)
    @given(
        capacities=st.lists(
            st.integers(0, 12), min_size=len(LINKS), max_size=len(LINKS)
        ),
        unit=st.sampled_from([1.0, 0.1, 1e9 / 3]),
        steps=st.lists(_CHURN_STEP, min_size=10, max_size=40),
    )
    @example(
        capacities=[10, 10, 10, 6, 12, 6],
        unit=1.0,
        steps=[
            ("add", 2, 3), ("remove", 16), ("add", 0, 3), ("set_path", 23, 1),
        ],
    )
    @example(
        capacities=[5, 10, 6, 5, 5, 5],
        unit=1.0,
        steps=[
            ("add", 4, 3), ("add", 5, 3), ("remove", 26), ("set_path", 7, 1),
            ("remove", 5),
        ],
    )
    def test_recompute_equals_reference_under_churn(
        self, capacities, unit, steps
    ):
        caps = {
            tuple(sorted(link)): value * unit
            for link, value in zip(LINKS, capacities)
        }
        store = FlowStore(caps, capacity=16)  # small: grows and compacts
        next_id = 0
        for step in steps:
            active = store.flow_ids()
            if step[0] == "add":
                # Several flows per path: path classes with multiplicity.
                for _ in range(step[2]):
                    store.add(spec(next_id), CHURN_PATHS[step[1]])
                    next_id += 1
            elif step[0] == "remove" and active:
                store.remove(active[step[1] % len(active)])
            elif step[0] == "set_path" and active:
                store.set_path(
                    active[step[1] % len(active)], CHURN_PATHS[step[2]]
                )
            elif step[0] == "fail_link":
                link = tuple(sorted(LINKS[step[1]]))
                store.fail_link(link)
                caps[link] = 0.0
            assert_live_state_recounted(store)
            rates, reference = store_and_reference(store, caps)
            assert rates == reference  # exact float equality, no tolerance


# Simple node paths over LINKS' nodes that the compaction case draws from.
TIE_PATHS = [
    ("a", "b"),
    ("a", "b", "c"),
    ("b", "c", "d"),
    ("a", "d"),
    ("a", "c", "d"),
    ("d", "b", "a", "c"),
    ("c", "d"),
    ("b", "d", "c"),
    ("a", "b", "d"),
]


def tie_key(store, link):
    """The filling's first-encounter key of a link (a node-pair tuple)."""
    return _Filling(store).tie_key(store._link_id[tuple(sorted(link))])


class TestLiveStateHardCases:
    """Churn that moves the first-encounter order of tied links, each
    step bit-identical to the dict reference.

    Capacities are small integers times an inexact unit, so which of two
    tied links freezes first changes the rounding of the other's share:
    a filling that broke ties by link id, or by a stale first member,
    would return different floats.
    """

    UNIT = 1e9 / 3

    def caps(self, units):
        return {
            tuple(sorted(link)): value * self.UNIT
            for link, value in zip(LINKS, units)
        }

    def test_first_member_leaving_flips_tied_links(self):
        caps = self.caps([1, 2, 6, 6, 8, 5])
        store = FlowStore(caps)
        paths = [
            ("b", "c", "d"), ("b", "d", "c"), ("a", "c", "d"),
            ("b", "c", "d"), ("a", "b"),
        ]
        for flow_id, path in enumerate(paths):
            store.add(spec(flow_id), path)
        rates, reference = store_and_reference(store, caps)
        assert rates == reference
        # b-c is reached first, through flow 0.
        assert tie_key(store, ("b", "c")) < tie_key(store, ("c", "d"))
        store.remove(0)  # its class keeps flow 3
        assert_live_state_recounted(store)
        # Now flow 1 reaches c-d first; b-c and c-d tie in round two
        # with different members ({3} and {1, 2, 3}).
        assert tie_key(store, ("c", "d")) < tie_key(store, ("b", "c"))
        rates, reference = store_and_reference(store, caps)
        assert rates == reference

    def test_set_path_moves_a_class_earlier(self):
        caps = self.caps([3, 4, 1, 2, 2, 2])
        store = FlowStore(caps)
        for flow_id, path in enumerate(
            [("a", "b"), ("a", "b"), ("d", "b", "a", "c")]
        ):
            store.add(spec(flow_id), path)
        rates, reference = store_and_reference(store, caps)
        assert rates == reference
        assert tie_key(store, ("a", "b")) < tie_key(store, ("b", "d"))
        # Flow 0 joins flow 2's class: the class's first member is now
        # row 0, so its first link b-d leads the three tied links.
        store.set_path(0, ("d", "b", "a", "c"))
        assert_live_state_recounted(store)
        assert tie_key(store, ("b", "d")) < tie_key(store, ("a", "b"))
        rates, reference = store_and_reference(store, caps)
        assert rates == reference

    def test_compaction_mid_churn(self):
        rng = random.Random(82)
        caps = {
            tuple(sorted(link)): rng.randint(1, 9) * 0.1 for link in LINKS
        }
        store = FlowStore(caps, capacity=16)
        for flow_id in range(64):
            store.add(spec(flow_id), TIE_PATHS[rng.randrange(len(TIE_PATHS))])
        for flow_id in rng.sample(range(64), 40):
            store.remove(flow_id)
            rates, reference = store_and_reference(store, caps)
            assert rates == reference
        # Row 64 is the high-water mark with 24 flows left: this add
        # compacts the rows to 0..23 first.
        store.add(spec(64), TIE_PATHS[rng.randrange(len(TIE_PATHS))])
        assert store.size == 25
        assert_live_state_recounted(store)
        rates, reference = store_and_reference(store, caps)
        assert rates == reference
        for flow_id in store.flow_ids()[::3]:
            store.remove(flow_id)
            assert_live_state_recounted(store)
            rates, reference = store_and_reference(store, caps)
            assert rates == reference

    @pytest.mark.parametrize(
        "bad_path", [("a", "z"), ("a", "b", "a")], ids=["unknown", "repeated"]
    )
    def test_raising_path_leaves_live_state(self, bad_path):
        caps = self.caps([1, 2, 3, 4, 5, 6])
        store = FlowStore(caps)
        store.add(spec(0), ("a", "b", "c"))
        store.add(spec(1), ("b", "c"))
        before = live_state(store)
        with pytest.raises((KeyError, ValueError)):
            store.add(spec(2), bad_path)
        assert live_state(store) == before
        with pytest.raises((KeyError, ValueError)):
            store.set_path(0, bad_path)
        assert live_state(store) == before
        assert store.path(0) == ("a", "b", "c")
        assert_live_state_recounted(store)
        rates, reference = store_and_reference(store, caps)
        assert rates == reference


class TestFlowStore:
    CAPS = {("a", "b"): 8.0, ("b", "c"): 4.0, ("c", "d"): 16.0}

    def make(self, capacity=16):
        return FlowStore(self.CAPS, capacity=capacity)

    def test_add_remove_membership(self):
        store = self.make()
        store.add(spec(7, size=100.0), ("a", "b"))
        assert 7 in store and len(store) == 1
        store.remove(7)
        assert 7 not in store and len(store) == 0
        with pytest.raises(KeyError):
            store.row(7)

    def test_duplicate_add_rejected(self):
        store = self.make()
        store.add(spec(1), ("a", "b"))
        with pytest.raises(ValueError):
            store.add(spec(1), ("a", "b"))

    def test_unknown_link_rejected(self):
        store = self.make()
        with pytest.raises(KeyError):
            store.add(spec(1), ("a", "z"))

    def test_path_repeating_a_link_rejected(self):
        store = self.make()
        with pytest.raises(ValueError):
            store.add(spec(1), ("a", "b", "a"))
        store.add(spec(2), ("a", "b"))
        with pytest.raises(ValueError):
            store.set_path(2, ("b", "c", "b"))
        assert store.path(2) == ("a", "b")

    def test_recompute_matches_reference(self):
        store = self.make()
        store.add(spec(1), ("a", "b", "c"))
        store.add(spec(2), ("a", "b"))
        store.add(spec(3), ("b", "c"))
        store.recompute()
        reference = max_min_fair_rates(
            {1: [("a", "b"), ("b", "c")], 2: [("a", "b")], 3: [("b", "c")]},
            self.CAPS,
        )
        for flow_id in (1, 2, 3):
            assert store.rate[store.row(flow_id)] == reference[flow_id]

    def test_empty_path_row_gets_sentinel_rate(self):
        store = self.make()
        store.add(spec(1), ("a",))
        store.recompute()
        assert store.rate[store.row(1)] == UNCONSTRAINED_RATE

    def test_compaction_is_stable(self):
        store = self.make(capacity=16)
        for flow_id in range(200):
            store.add(spec(flow_id, size=10.0 * (flow_id + 1)), ("a", "b"))
            if flow_id % 2:
                store.remove(flow_id)
        survivors = store.flow_ids()
        assert survivors == sorted(survivors)  # admission order kept
        # Columns still line up with their flows after compactions.
        for flow_id in survivors:
            assert store.remaining[store.row(flow_id)] == 10.0 * (flow_id + 1)
            assert store.path(flow_id) == ("a", "b")

    def test_explicit_compact_preserves_state(self):
        store = self.make()
        store.add(spec(1, size=5.0), ("a", "b", "c"))
        store.add(spec(2, size=6.0), ("b", "c"))
        store.add(spec(3, size=7.0), ("c", "d"))
        store.remove(2)
        store.set_pending_activation(1, True)
        store.set_blackhole_start(3, 1.25)
        store.compact()
        assert store.flow_ids() == [1, 3]
        # The pending flag moved with flow 1's row: TE skips only it.
        assert store.te_views()[0] == [3]
        assert store.blackhole_start(3) == 1.25
        assert store.path(1) == ("a", "b", "c")
        store.recompute()
        reference = max_min_fair_rates(
            {1: [("a", "b"), ("b", "c")], 3: [("c", "d")]}, self.CAPS
        )
        assert store.rate[store.row(1)] == reference[1]
        assert store.rate[store.row(3)] == reference[3]

    def test_set_path_shrink_and_grow(self):
        store = self.make()
        store.add(spec(1), ("a", "b", "c", "d"))
        store.set_path(1, ("a", "b"))  # a shorter path
        assert store.path(1) == ("a", "b")
        assert store.flows_on_link(("b", "c")) == []
        store.set_path(1, ("b", "c", "d"))  # a longer one
        assert store.path(1) == ("b", "c", "d")
        assert store.flows_on_link(("b", "c")) == [1]
        assert store.flows_on_link(("a", "b")) == []

    def test_flows_on_link_admission_order(self):
        store = self.make()
        store.add(spec(5), ("a", "b"))
        store.add(spec(2), ("a", "b", "c"))
        store.add(spec(9), ("b", "c"))
        assert store.flows_on_link(("a", "b")) == [5, 2]
        assert store.flows_on_link(("b", "c")) == [2, 9]
        assert store.flows_on_link(("x", "y")) == []

    def test_advance_and_next_completion(self):
        store = self.make()
        store.add(spec(1, size=8.0), ("a", "b"))
        store.add(spec(2, size=16.0), ("a", "b"))
        store.recompute()  # 4.0 each
        eta, flow_id = store.next_completion(0.0)
        assert (eta, flow_id) == (16.0, 1)
        store.advance(16.0)
        assert store.remaining[store.row(1)] == 0.0
        assert store.remaining[store.row(2)] == 8.0

    def test_next_completion_tie_breaks_to_earliest_admitted(self):
        store = self.make()
        store.add(spec(10, size=8.0), ("a", "b"))
        store.add(spec(11, size=8.0), ("a", "b"))
        store.recompute()
        _eta, flow_id = store.next_completion(0.0)
        assert flow_id == 10

    def test_no_completion_without_rates(self):
        store = self.make()
        assert store.next_completion(0.0) == (math.inf, None)
        store.add(spec(1), ("a", "b"))
        assert store.next_completion(0.0) == (math.inf, None)

    def test_fail_link_zeroes_rates(self):
        store = self.make()
        store.add(spec(1), ("a", "b"))
        store.fail_link(("a", "b"))
        store.recompute()
        assert store.rate[store.row(1)] == 0.0

    def test_utilization_matches_reference(self):
        from repro.simulator import link_utilization

        store = self.make()
        paths = {1: ("c", "b", "a"), 2: ("b", "c", "d"), 3: ("d", "c")}
        for flow_id, path in paths.items():
            store.add(spec(flow_id), path)
        store.recompute()
        link_of = {link_id: link for link, link_id in store._link_id.items()}
        capacities = dict(self.CAPS)
        for failed in (None, ("b", "c")):
            if failed is not None:
                # A zero-capacity link is left out, as the reference does.
                store.fail_link(failed)
                capacities[failed] = 0.0
            reference = link_utilization(
                {flow_id: path_links(path) for flow_id, path in paths.items()},
                {
                    flow_id: float(store.rate[store.row(flow_id)])
                    for flow_id in paths
                },
                capacities,
            )
            links, values = store.utilization()
            # Same values in the same order: first encounter over the rows,
            # links in path order.
            assert list(
                zip([link_of[link] for link in links.tolist()], values.tolist())
            ) == list(reference.items())

    def test_utilization_of_an_empty_store_is_empty(self):
        links, values = self.make().utilization()
        assert links.size == 0 and values.size == 0

    def test_te_views_are_admission_ordered(self):
        store = self.make()
        store.add(spec(3, size=5.0), ("a", "b"))
        store.add(spec(1, size=6.0), ("b", "c"))
        store.add(spec(2, size=7.0), ("b", "c"))
        store.set_pending_activation(1, True)
        store.rate[store.row(3)] = 2.0
        flow_ids, path_ids, rates = store.te_views()
        assert flow_ids == [3, 2]
        assert [store.path_of(path_id) for path_id in path_ids] == [
            ("a", "b"), ("b", "c"),
        ]
        assert rates == [2.0, 0.0]

    def test_link_rows_pad_interned_paths(self):
        """Each interned path's link ids, in path order, padded with one
        past the last link id; a longer path widens the matrix in place."""
        store = self.make()
        short = store.intern(("b", "c"))
        long = store.intern(("d", "c", "b", "a"))
        pad = len(self.CAPS)
        assert store.link_ids(long) == [
            store._link_id[link] for link in path_links(("d", "c", "b", "a"))
        ]
        assert store.link_rows[short, :3].tolist() == store.link_ids(short) + [pad, pad]
        assert store.link_rows[long, :3].tolist() == store.link_ids(long)
        assert store.intern(("b", "c")) == short


def _fat_tree_workload(burst=False, seed=5, flows_count=120):
    from repro.topology import FatTreeSpec, build_fat_tree, hosts

    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    hosts_ = hosts(graph)
    rng = np.random.default_rng(seed)
    flows = []
    for index in range(flows_count):
        start = (
            0.05 * (index // 30) if burst else float(rng.uniform(0.0, 1.5))
        )
        src, dst = rng.choice(len(hosts_), size=2, replace=False)
        flows.append(
            FlowSpec(
                source=hosts_[src],
                destination=hosts_[dst],
                size=float(rng.integers(int(1e5), int(5e6))),
                start_time=start,
                # Explicit ids: ECMP hashes on them, so the default
                # process-global counter would tie results to test order.
                flow_id=index,
            )
        )
    return graph, flows


def _run_digest(graph, flows, **overrides):
    """sha256 of a tango run's flow records, sorted RITs and blackhole time."""
    from repro.experiments.common import (
        QUICK_SCALE,
        installer_factory,
        te_simulation_config,
    )

    config = replace(te_simulation_config(QUICK_SCALE), **overrides)
    simulation = Simulation(
        graph,
        flows,
        installer_factory("tango", "pica8-p3290", seed=100),
        config,
    )
    metrics = simulation.run()
    records = sorted(
        (
            record.spec.flow_id,
            record.start_time,
            -1.0 if record.finish_time is None else record.finish_time,
            record.reroutes,
        )
        for record in metrics.flow_records()
    )
    payload = [records, sorted(metrics.rits()), simulation.blackhole_time]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# Captured with event-scheduled completions while the per-flow-object
# backend still ran beside the columnar one: on every scenario below both
# backends produced these exact digests.
# TE_DIGEST, LINK_FAILURE_DIGEST and BURST_DIGEST were re-pinned once when
# a flow's install outcome became the only record of its rules: reroutes
# delete the old rule ids instead of leaking them, so TE inserts see lower
# occupancy.  NO_TE_DIGEST installs nothing and held.
NO_TE_DIGEST = "6f3466d9446d20069503b75decb34e67e4d76abf5ac91a816aa6b548e4368449"
TE_DIGEST = "4de09b5a55df646aab00cdec3768520badfdc5ccebb9eed2f44993ef69a0745d"
# LINK_FAILURE_DIGEST was re-pinned before that when the TE planner began
# to cost a dead link at +inf: a move it used to plan onto the failed
# link, which the epoch then dropped, is now planned onto a healthy path
# and installed (60 -> 65 RITs); every flow record and the blackhole time
# are unchanged.
LINK_FAILURE_DIGEST = (
    "640e8f2e54271f688706cae82affc44ed379ffed8bf564d78ad6698052cdc844"
)
BURST_DIGEST = "298c2155352c4cf8deaa463dbf911d5c802c866b05b36d223eb061033ea08b70"

_TE_DIGEST_SCRIPT = r"""
import sys

sys.path.insert(0, sys.argv[1])
from tests.simulator.test_flowstate import _fat_tree_workload, _run_digest

print(_run_digest(*_fat_tree_workload()))
"""


class TestSimulationDifferential:
    """Whole simulations reproduce the digests both backends agreed on."""

    def test_arrival_completion_workload_exact(self):
        # A TE epoch far past max_time: pure arrival/completion dynamics.
        from repro.experiments.common import QUICK_SCALE, te_simulation_config

        graph, flows = _fat_tree_workload()
        base = te_simulation_config(QUICK_SCALE)
        quiet = replace(base.te, epoch=1e9)
        assert _run_digest(graph, flows, te=quiet) == NO_TE_DIGEST

    def test_te_workload_exact(self):
        graph, flows = _fat_tree_workload()
        assert _run_digest(graph, flows) == TE_DIGEST

    def test_event_mode_exact(self):
        # The same pin from a fresh interpreter: the scheduled-completion
        # order must not lean on process-global counters (rule ids).
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        assert _run_script(_TE_DIGEST_SCRIPT, root) == TE_DIGEST

    def test_link_failure_exact(self):
        graph, flows = _fat_tree_workload()
        failures = ((0.4, ("agg-0-0", "core-0")),)
        assert (
            _run_digest(graph, flows, link_failures=failures)
            == LINK_FAILURE_DIGEST
        )

    def test_same_instant_bursts_exact(self):
        # Bursts exercise the batched same-instant recompute (the
        # deferral fast path).
        graph, flows = _fat_tree_workload(burst=True)
        assert _run_digest(graph, flows) == BURST_DIGEST

    def test_same_instant_bursts_batch_their_recomputes(self, monkeypatch):
        # Skipping a covered recompute cannot change a digest, so only a
        # count shows the batching broke: 158 fillings with it, 274 when
        # the next arrival is queued before the batching check.  Pops are
        # the 235 non-arrival events plus one arrival per flow.
        counts = Counter()
        for owner, name in ((FlowStore, "recompute"), (EventScheduler, "pop")):
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        graph, flows = _fat_tree_workload(burst=True)
        assert _run_digest(graph, flows) == BURST_DIGEST
        assert counts["recompute"] == 158
        assert counts["pop"] == 235 + len(flows)
