"""Per-filling work of the max-min fair share, counted.

``FlowStore.recompute`` fills over distinct paths: each path's links are
walked once, when the path freezes, and a link is re-keyed in the
bottleneck heap only in a round that froze one of its paths.  A
wall-clock gate for this depends on the host; this test counts the work
instead, so a per-round rescan that comes back fails on any machine.
The counters wrap the module's heap calls and ``_drain``, the one
function that walks a freezing path's links.

The rescanning oracle runs under the same counters, returns the same
rates and must break the round rule, so the counters are known to see a
rescan.
"""

import pytest

from repro.experiments.common import canned_scenario
from repro.simulator import flowstate

from . import fill_oracle


@pytest.fixture(scope="module")
def fills():
    """The inputs of every filling of the canned Figure 8 run (the ISP
    TE scenario with Hermes installs)."""
    recorded = []
    real = flowstate._fill_paths

    def recording(paths, multiplicity, capacity):
        recorded.append((paths, multiplicity, capacity))
        return real(paths, multiplicity, capacity)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flowstate, "_fill_paths", recording)
        simulation, _meta = canned_scenario("fig08")
        simulation.run()
    return recorded


@pytest.fixture
def events(monkeypatch):
    """Records heap initialisation, pops, pushes and path walks in order."""
    log = []
    heapify, heappop, heappush = (
        flowstate.heapify, flowstate.heappop, flowstate.heappush
    )
    drain = flowstate._drain

    def counting_heapify(heap):
        log.append(("init", len(heap)))
        heapify(heap)

    def counting_heappop(heap):
        log.append(("pop", None))
        return heappop(heap)

    def counting_heappush(heap, entry):
        log.append(("push", entry[1]))
        heappush(heap, entry)

    def counting_drain(ranks, *args):
        log.append(("walk", ranks))
        drain(ranks, *args)

    monkeypatch.setattr(flowstate, "heapify", counting_heapify)
    monkeypatch.setattr(flowstate, "heappop", counting_heappop)
    monkeypatch.setattr(flowstate, "heappush", counting_heappush)
    monkeypatch.setattr(flowstate, "_drain", counting_drain)
    return log


def work_of(log):
    """Walks, walked links, heap entries and round-rule breaks of one filling.

    A round runs from one pop to the next.  A push breaks the round rule
    when no walk of that round covered the pushed link, or when the link
    was already pushed in that round.
    """
    walks = [ranks for kind, ranks in log if kind == "walk"]
    entries = sum(value for kind, value in log if kind == "init")
    breaks = 0
    walked, pushed = set(), set()
    for kind, value in log:
        if kind == "pop":
            walked, pushed = set(), set()
        elif kind == "walk":
            walked.update(value)
        elif kind == "push":
            entries += 1
            if value not in walked or value in pushed:
                breaks += 1
            pushed.add(value)
    return {
        "walks": len(walks),
        "distinct_walks": len({id(ranks) for ranks in walks}),
        "walked_links": sum(len(ranks) for ranks in walks),
        "entries": entries,
        "breaks": breaks,
    }


def shape_of(paths):
    """(linked paths, incidences, links) of one filling's input."""
    linked = [links for links in paths if links]
    return (
        len(linked),
        sum(len(links) for links in linked),
        len({link for links in linked for link in links}),
    )


def test_fills_are_contended(fills):
    """The recorded fillings exercise the heap: many paths, shared links,
    multi-flow path classes."""
    assert len(fills) >= 1000
    assert sum(len(paths) for paths, _, _ in fills) / len(fills) >= 50
    assert sum(max(mult) > 1 for _, mult, _ in fills) >= len(fills) // 2


def test_each_path_walked_once_and_pushes_bounded(fills, events):
    for paths, multiplicity, capacity in fills:
        events.clear()
        flowstate._fill_paths(paths, multiplicity, capacity)
        work = work_of(events)
        linked, incidences, links = shape_of(paths)
        assert work["walks"] == work["distinct_walks"] == linked
        assert work["walked_links"] == incidences
        assert work["entries"] <= incidences + links
        assert work["breaks"] == 0


def test_rescan_oracle_breaks_the_round_rule(fills, events):
    pushes = breaks = 0
    for paths, multiplicity, capacity in fills:
        expected = flowstate._fill_paths(paths, multiplicity, capacity)
        events.clear()
        rates = fill_oracle.rescan_fill(paths, multiplicity, capacity)
        assert rates == expected
        work = work_of(events)
        pushes += work["entries"]
        breaks += work["breaks"]
    assert breaks > pushes // 4, (breaks, pushes)
