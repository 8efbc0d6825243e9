"""Per-epoch work of the TE planner, counted, and its decisions on real epochs.

``ProactiveTeApp.plan`` must index the flows by hot link once per call and
decide flows from a decision table that it rebuilds at most once per
accepted move, rather than rescanning every flow's path per congested link
and re-costing every candidate of every flow it tries.  A wall-clock gate
for this depends on the host; these tests count the work instead, so a
return of the rescan fails on any machine.  Two counters see it:

- Link walks per flow per plan: ``FlowStore.link_ids`` calls, the
  planner's only per-flow read of a path's links.  It reads them once per
  flow when it indexes the flows by hot link, and for the old and the new
  path of each move it shifts load over.  Costing reads the store's link
  rows for all the plan's paths at once, and interning a candidate walks
  its links inside the store; neither is a per-flow read.
- ``DecisionTable.decide`` calls per plan: every path cost the planner
  computes comes from one of them.

The rescanning oracle runs under the first counter, which also counts its
``path_links`` calls, and must blow the bound, so the counter is known to
see a rescan.  The same recorded epochs, and a
short Geant run whose candidates have mixed lengths, hold the planner to
the oracle's reroutes.
"""

import dataclasses

import pytest

from repro.baselines import make_installer
from repro.experiments.common import (
    QUICK_SCALE,
    WorkloadScale,
    facebook_workload,
    isp_workload,
    te_simulation_config,
)
from repro.simulator import FlowStore, Simulation, sdnapp
from repro.simulator.sdnapp import ProactiveTeApp
from repro.tcam import ideal_switch

from . import te_plan_oracle

# Link walks per flow per plan.  On these epochs the planner peaks at 2
# (mean ~1.05); the rescan averages above 60.
PER_FLOW_BOUND = 8
SIM_SECONDS = 20.0
GEANT_SCALE = WorkloadScale(isp_flow_duration=2.0)
GEANT_SIM_SECONDS = 10.0


def record_plans(graph, flows, config):
    """The arguments of every plan call with active flows of one run, on
    ideal switches so the run is quick."""
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


@pytest.fixture(scope="module")
def epochs():
    """The plan calls of a fat-tree MapReduce run (the TE setup of
    Figures 1 and 8)."""
    graph, flows, _, _ = facebook_workload(QUICK_SCALE)
    config = dataclasses.replace(te_simulation_config(QUICK_SCALE), max_time=SIM_SECONDS)
    return record_plans(graph, flows, config)


@pytest.fixture(scope="module")
def geant_epochs():
    """The plan calls of a short Geant run (the ISP setup of Figures 8
    and 9), whose k shortest paths have mixed lengths."""
    graph, flows = isp_workload("geant", GEANT_SCALE)
    config = dataclasses.replace(
        te_simulation_config(GEANT_SCALE), max_time=GEANT_SIM_SECONDS
    )
    return record_plans(graph, flows, config)


@pytest.fixture
def scans(monkeypatch):
    """Counts the link walks of the planner (``FlowStore.link_ids``) and of
    the oracle (``path_links``)."""
    calls = [0]
    real_link_ids = FlowStore.link_ids
    real_path_links = te_plan_oracle.path_links

    def counting_link_ids(store, path_id):
        calls[0] += 1
        return real_link_ids(store, path_id)

    def counting_path_links(path):
        calls[0] += 1
        return real_path_links(path)

    monkeypatch.setattr(FlowStore, "link_ids", counting_link_ids)
    monkeypatch.setattr(te_plan_oracle, "path_links", counting_path_links)
    return calls


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts rebuilds of the planner's decision table."""
    calls = [0]
    real = sdnapp.DecisionTable.decide

    def counting(table):
        calls[0] += 1
        return real(table)

    monkeypatch.setattr(sdnapp.DecisionTable, "decide", counting)
    return calls


def test_epochs_are_congested(epochs):
    """The recorded epochs exercise the planner: many flows, moves most epochs."""
    assert len(epochs) >= 50
    assert sum(len(epoch[1]) for epoch in epochs) / len(epochs) >= 100
    moves = sum(len(app.plan(*args)) for app, *args in epochs)
    assert moves >= 2 * len(epochs)


def test_plan_scans_each_path_a_bounded_number_of_times(epochs, scans):
    worst = 0.0
    for app, *args in epochs:
        scans[0] = 0
        app.plan(*args)
        worst = max(worst, scans[0] / len(args[0]))
    assert worst <= PER_FLOW_BOUND


def test_plan_rebuilds_decisions_at_most_once_per_move(epochs, rebuilds):
    total = 0
    for app, *args in epochs:
        rebuilds[0] = 0
        moves = len(app.plan(*args))
        assert rebuilds[0] <= moves + 1
        total += rebuilds[0]
    assert total > 0


def test_rescan_oracle_breaks_the_bound(epochs, scans):
    total = 0
    for app, *args in epochs:
        te_plan_oracle.rescan_plan(app, *args)
        total += scans[0]
    assert total / sum(len(epoch[1]) for epoch in epochs) > 3 * PER_FLOW_BOUND


@pytest.mark.parametrize("recorded", ["epochs", "geant_epochs"])
def test_plan_matches_rescan_oracle_on_recorded_epochs(recorded, request):
    """Every recorded epoch, replayed through the run's own app (whose path
    table the run filled), gets exactly the oracle's reroutes."""
    moves = 0
    for app, *args in request.getfixturevalue(recorded):
        plan = app.plan(*args)
        assert plan == te_plan_oracle.rescan_plan(app, *args)
        moves += len(plan)
    assert moves > 0
