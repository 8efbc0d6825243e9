"""Per-filling work of the max-min fair share, counted.

``FlowStore.recompute`` fills over per-link state the store keeps live
across ``add``/``remove``/``set_path``.  A wall-clock gate for this
depends on the host; this test counts the work instead, so a setup walk
or a per-round rescan that comes back fails on any machine.  Per filling
of the canned Figure 8 run it logs, in order:

* each walk of a class's link list (the lists are swapped for counting
  lists, so any walk is seen, not only the filling's own);
* each round's pick, with how many links then share the smallest share;
* each first-encounter key computed for a tied link;
* each round's share recomputation, with the links it recomputed.

The rules: every class is walked exactly once, inside a round, so the
links walked equal the incidences and nothing walks the class lists to
rebuild per-link state; a round recomputes the shares of exactly the
links its walks touched; and keys are computed only in tied rounds.

The setup-walk oracle (the filling the live state replaced) runs under
the same counters, returns the same rates and must break the setup-walk
rule, so the counters are known to see a rebuild.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest

from repro.experiments.common import canned_scenario
from repro.simulator.flowstate import FlowStore, _Filling

from . import fill_oracle

# Fillings the setup-walk oracle is run on (every Nth): enough to show
# the counters see it, cheap enough for the canned run.
ORACLE_STRIDE = 25


class Recorder:
    """The open filling's event log (None between fillings)."""

    def __init__(self) -> None:
        self.log: Optional[list] = None


class CountingLinks(list):
    """A class's link list that logs every walk of it while a log is open."""

    def __init__(self, links, path_id: int, recorder: Recorder) -> None:
        super().__init__(links)
        self.path_id = path_id
        self.recorder = recorder

    def __iter__(self):
        if self.recorder.log is not None:
            self.recorder.log.append(("walk", self.path_id))
        return super().__iter__()


@dataclass
class Fill:
    """One filling: its log, its linked classes and its rows' shape."""

    log: list
    classes: List[int]
    flows: int
    largest_class: int
    oracle_log: Optional[list] = None
    oracle_exact: Optional[bool] = None
    path_links: list = field(repr=False, default_factory=list)


def breaches(log, classes, path_links):
    """The gate's rules one filling's log breaks (an empty set if none)."""
    found = set()
    walked = [value for kind, value in log if kind == "walk"]
    if sorted(walked) != sorted(classes):
        found.add("each class walked once")
    if sum(len(path_links[p]) for p in walked) != sum(
        len(path_links[p]) for p in classes
    ):
        found.add("links walked equal the incidences")
    in_round, ties, keys, touched = False, 0, 0, set()
    for kind, value in log:
        if kind == "pick":
            in_round, ties, keys, touched = True, value, 0, set()
        elif kind == "walk":
            if not in_round:
                found.add("no setup walk")
            touched.update(path_links[value])
        elif kind == "key":
            keys += 1
            if ties < 2 or keys > ties:
                found.add("tie keys only in tied rounds")
        elif kind == "reshare":
            if set(value) != touched:
                found.add("shares recomputed only for touched links")
            in_round = False
    return found


@pytest.fixture(scope="module")
def fills():
    """Every filling of the canned Figure 8 run (the ISP TE scenario with
    Hermes installs), logged."""
    recorder = Recorder()
    recorded: List[Fill] = []
    real = {
        name: getattr(_Filling, name) for name in ("pick", "tie_key", "reshare")
    }
    real_recompute = FlowStore.recompute

    def pick(self):
        values = list(self.share.values())
        recorder.log.append(("pick", values.count(min(values))))
        return real["pick"](self)

    def tie_key(self, link):
        recorder.log.append(("key", link))
        return real["tie_key"](self, link)

    def reshare(self):
        recorder.log.append(("reshare", tuple(self.touched)))
        real["reshare"](self)

    def recompute(store):
        links = store._path_links
        for path_id, path in enumerate(links):
            if not isinstance(path, CountingLinks):
                links[path_id] = CountingLinks(path, path_id, recorder)
        rows = store.active_rows()
        path_ids = store.path_id[rows].tolist()
        fill = Fill(
            log=[],
            classes=sorted({p for p in path_ids if links[p]}),
            flows=len(path_ids),
            largest_class=max(np.bincount(path_ids), default=0),
            path_links=links,
        )
        recorder.log = fill.log
        try:
            real_recompute(store)
            if len(recorded) % ORACLE_STRIDE == 0 and len(rows):
                fill.oracle_log = recorder.log = []
                rates = fill_oracle.setup_walk_rates(store)
                fill.oracle_exact = bool(
                    np.array_equal(rates, store.rate[rows])
                )
        finally:
            recorder.log = None
        recorded.append(fill)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Filling, "pick", pick)
        patch.setattr(_Filling, "tie_key", tie_key)
        patch.setattr(_Filling, "reshare", reshare)
        patch.setattr(FlowStore, "recompute", recompute)
        simulation, _meta = canned_scenario("fig08")
        simulation.run()
    return recorded


def test_fills_are_contended(fills):
    """The recorded fillings exercise the rules: many flows, multi-flow
    classes, and tied rounds that compute first-encounter keys."""
    assert len(fills) >= 1000
    assert sum(fill.flows for fill in fills) / len(fills) >= 50
    assert sum(fill.largest_class > 1 for fill in fills) >= len(fills) // 2
    tied = [
        fill for fill in fills
        if any(kind == "pick" and value > 1 for kind, value in fill.log)
    ]
    assert len(tied) >= 10
    assert any(kind == "key" for fill in tied for kind, _ in fill.log)


def test_each_class_walked_once_and_only_touched_links_reshared(fills):
    for fill in fills:
        assert breaches(fill.log, fill.classes, fill.path_links) == set()


def test_setup_walk_oracle_breaks_the_gate(fills):
    checked = [fill for fill in fills if fill.oracle_log is not None]
    assert len(checked) >= 40
    for fill in checked:
        assert fill.oracle_exact
        assert "no setup walk" in breaches(
            fill.oracle_log, fill.classes, fill.path_links
        )
