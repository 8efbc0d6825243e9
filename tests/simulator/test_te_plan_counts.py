"""Per-epoch work of the TE planner, counted.

``ProactiveTeApp.plan`` must index the flows by hot link once per call and
cost each path at most once between accepted moves, rather than rescanning
every flow's path per congested link and re-costing every candidate of
every flow it tries.  A wall-clock gate for this depends on the host; this
test counts the work instead, so a return of the rescan fails on any
machine.  Every path scan and path cost reads the path's links through
``path_links_cached``, so the count of its calls, per active flow per plan,
is the planner's work.

The rescanning oracle runs under the same counter and must blow the bound,
so the counter is known to see a rescan.
"""

import dataclasses

import pytest

from repro.baselines import make_installer
from repro.experiments.common import QUICK_SCALE, facebook_workload, te_simulation_config
from repro.simulator import Simulation, sdnapp
from repro.simulator.sdnapp import ProactiveTeApp
from repro.tcam import ideal_switch

from . import te_plan_oracle

# Calls of path_links_cached per active flow per plan.  On these epochs the
# planner peaks below 15 (mean ~6); the rescan averages above 50.
PER_FLOW_BOUND = 16
SIM_SECONDS = 20.0


@pytest.fixture(scope="module")
def epochs():
    """The arguments of every plan call of a fat-tree MapReduce run (the
    TE setup of Figures 1 and 8), on ideal switches so the run is quick."""
    graph, flows, _, _ = facebook_workload(QUICK_SCALE)
    config = dataclasses.replace(te_simulation_config(QUICK_SCALE), max_time=SIM_SECONDS)
    recorded = []
    real_plan = ProactiveTeApp.plan

    def recording_plan(app, *args, **kwargs):
        recorded.append((app,) + args)
        return real_plan(app, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProactiveTeApp, "plan", recording_plan)
        Simulation(
            graph, flows, lambda name: make_installer("naive", ideal_switch()), config
        ).run()
    return [epoch for epoch in recorded if epoch[1]]


@pytest.fixture
def scans(monkeypatch):
    """Counts ``path_links_cached`` calls made by the planner and the oracle."""
    calls = [0]
    real = sdnapp.path_links_cached

    def counting(path):
        calls[0] += 1
        return real(path)

    monkeypatch.setattr(sdnapp, "path_links_cached", counting)
    monkeypatch.setattr(te_plan_oracle, "path_links_cached", counting)
    return calls


def test_epochs_are_congested(epochs):
    """The recorded epochs exercise the planner: many flows, moves most epochs."""
    assert len(epochs) >= 50
    assert sum(len(epoch[1]) for epoch in epochs) / len(epochs) >= 100
    moves = sum(
        len(app.plan(flows, paths, rates, utilization, capacities))
        for app, flows, paths, rates, utilization, capacities in epochs
    )
    assert moves >= 2 * len(epochs)


def test_plan_scans_each_path_a_bounded_number_of_times(epochs, scans):
    worst = 0.0
    for app, flows, paths, rates, utilization, capacities in epochs:
        scans[0] = 0
        app.plan(flows, paths, rates, utilization, capacities)
        worst = max(worst, scans[0] / len(flows))
    assert worst <= PER_FLOW_BOUND


def test_rescan_oracle_breaks_the_bound(epochs, scans):
    total = 0
    for app, flows, paths, rates, utilization, capacities in epochs:
        te_plan_oracle.rescan_plan(app, flows, paths, rates, utilization, capacities)
        total += scans[0]
    assert total / sum(len(epoch[1]) for epoch in epochs) > 3 * PER_FLOW_BOUND
