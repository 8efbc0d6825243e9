"""One path index per simulation: the flow store's.

The TE planner reads the :class:`~repro.simulator.flowstate.FlowStore`'s
path and link ids instead of keeping its own, the store's link-row matrix
grows with each interned path instead of being rebuilt, and no path or
link memo outlives the :class:`~repro.simulator.simulation.Simulation`
that built it.
"""

import dataclasses
import math

import pytest

import repro.topology.routing as routing
from repro.baselines import make_installer
from repro.experiments.common import QUICK_SCALE, facebook_workload, te_simulation_config
from repro.simulator import FlowStore, Simulation
from repro.simulator.sdnapp import ProactiveTeApp
from repro.tcam import ideal_switch

SIM_SECONDS = 20.0


def simulation(graph, flows):
    config = dataclasses.replace(te_simulation_config(QUICK_SCALE), max_time=SIM_SECONDS)
    return Simulation(
        graph, flows, lambda name: make_installer("naive", ideal_switch()), config
    )


@pytest.fixture(scope="module")
def workload():
    graph, flows, _, _ = facebook_workload(QUICK_SCALE)
    return graph, flows


@pytest.fixture(scope="module")
def run(workload):
    """A fat-tree MapReduce run: its simulation, its reroutes, the number
    of link-row extensions, and per plan call a copy of the link rows
    interned so far."""
    extensions = [0]
    snapshots, reroutes = [], []
    real_extend, real_plan = FlowStore._extend_link_rows, ProactiveTeApp.plan

    def counting_extend(store, width):
        extensions[0] += 1
        return real_extend(store, width)

    def recording_plan(app, *args, **kwargs):
        store = app.store
        snapshots.append(store.link_rows[: len(store._path_of)].copy())
        moves = real_plan(app, *args, **kwargs)
        reroutes.extend(moves)
        return moves

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowStore, "_extend_link_rows", counting_extend)
        patch.setattr(ProactiveTeApp, "plan", recording_plan)
        sim = simulation(*workload)
        sim.run()
    return sim, reroutes, extensions[0], snapshots


def test_planner_and_store_share_one_index(run):
    sim, reroutes, _, _ = run
    store, app = sim._store, sim.app
    assert app.store is store
    assert reroutes
    interned = len(store._path_of)
    # Every path the planner proposed or holds a candidate row for is a
    # store path, and each row names its endpoints' other candidates in
    # provider order.
    for move in reroutes:
        assert store.path_of(store.intern(move.new_path)) == move.new_path
    assert app._candidates
    for path_id, row in app._candidates.items():
        path = store.path_of(path_id)
        others = [
            candidate
            for candidate in sim.provider.paths(path[0], path[-1])
            if candidate != path
        ]
        assert [store.path_of(other) for other in row if other >= 0] == others
        assert row[len(others):] == [-1] * (len(row) - len(others))
    assert len(store._path_of) == interned


def test_second_simulation_starts_with_no_interned_paths(run, workload):
    sim, _, _, _ = run
    assert len(sim._store._path_of) > 0
    second = simulation(*workload)
    assert second._store._path_of == []
    assert second.app._candidates == {}
    assert second.app.store is second._store
    # No module-level memo of paths or links survives a simulation.
    assert not [
        name for name, value in vars(routing).items() if hasattr(value, "cache_info")
    ]


def test_link_rows_are_extended_never_rebuilt(run):
    sim, _, extensions, snapshots = run
    store = sim._store
    interned = len(store._path_of)
    width = store.link_rows.shape[1]
    # Rows double from 64 and columns widen only to a longer path.
    assert extensions <= math.ceil(math.log2(interned / 64)) + width
    assert interned > 10 * extensions
    rows = store.link_rows[:interned]
    for path_id, links in enumerate(store._path_links):
        assert rows[path_id].tolist() == links + [len(store.link_capacity)] * (
            width - len(links)
        )
    # What each epoch saw is a prefix of what came after, up to widening.
    assert len(snapshots) > 50
    for before, after in zip(snapshots, snapshots[1:]):
        assert (after[: len(before), : before.shape[1]] == before).all()
