"""A setup-walk fair-share filling: the counter check for the fill gate.

:meth:`repro.simulator.flowstate.FlowStore.recompute` fills over the
store's live per-link state; no filling walks the classes' link lists to
rebuild it.  This module keeps the filling that state replaces: it counts
the active rows' path ids, walks every class's links to rank the links
and list their classes, then takes each bottleneck from a heap keyed by
``(share, rank)``.  Its rates are still exact, so the gate holds it to the
shipped filling, and checks that its counters see this setup walk.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Dict, List, Sequence

import numpy as np

from repro.simulator.fairshare import UNCONSTRAINED_RATE


def _fill_paths(
    paths: Sequence[Sequence[int]],
    multiplicity: Sequence[int],
    capacity: Sequence[float],
) -> List[float]:
    """Max-min fair rate per class, classes in first-member order."""
    rank_of: Dict[int, int] = {}
    remaining: List[float] = []
    count: List[int] = []
    members: List[List[int]] = []
    ranked: List[List[int]] = []
    rates = [0.0] * len(paths)
    for index, (links, flows) in enumerate(zip(paths, multiplicity)):
        ranks = []
        for link in links:
            if link not in rank_of:
                rank_of[link] = len(remaining)
                remaining.append(capacity[link])
                count.append(0)
                members.append([])
            rank = rank_of[link]
            count[rank] += flows
            members[rank].append(index)
            ranks.append(rank)
        ranked.append(ranks)
        if not ranks:
            rates[index] = UNCONSTRAINED_RATE
    share = [left / flows for left, flows in zip(remaining, count)]
    heap = list(zip(share, range(len(share))))
    heapify(heap)
    frozen = [False] * len(paths)
    while heap:
        bottleneck_share, bottleneck = heappop(heap)
        if not count[bottleneck] or bottleneck_share != share[bottleneck]:
            continue
        touched = {}
        for index in members[bottleneck]:
            if frozen[index]:
                continue
            frozen[index] = True
            rates[index] = max(0.0, bottleneck_share)
            flows = multiplicity[index]
            for rank in ranked[index]:
                for _ in range(flows):
                    remaining[rank] -= bottleneck_share
                count[rank] -= flows
                touched[rank] = None
        for rank in touched:
            if count[rank]:
                share[rank] = remaining[rank] / count[rank]
                heappush(heap, (share[rank], rank))
    return rates


def setup_walk_rates(store) -> np.ndarray:
    """The rate of each of ``store``'s active rows, filled from scratch."""
    rows = store.active_rows()
    path_ids = store.path_id[rows]
    classes = Counter(path_ids.tolist())
    filled = _fill_paths(
        [store._path_links[path_id] for path_id in classes],
        list(classes.values()),
        store.link_capacity.tolist(),
    )
    by_path = np.empty(len(store._path_links), dtype=np.float64)
    by_path[list(classes)] = filled
    return by_path[path_ids]
