"""A rescanning fair-share filling: the counter check for the fill gate.

:func:`repro.simulator.flowstate._fill_paths` re-keys a link in its heap
only in a round that froze one of the link's paths.  This module keeps
the filling that shortcut replaces: every round re-keys every live link,
as a per-round ``argmin`` over the links does.  Its rates are still exact
(stale entries are rejected the same way), so the differential holds it to
the shipped filling, and the operation-count gate checks that the counter
sees its extra work.  It calls the heap and ``_drain`` through the
``flowstate`` module, so the gate's counters see its calls.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.simulator import flowstate
from repro.simulator.fairshare import UNCONSTRAINED_RATE


def rescan_fill(
    paths: Sequence[Sequence[int]],
    multiplicity: Sequence[int],
    capacity: Sequence[float],
) -> List[float]:
    """Max-min fair rate per path class, re-keying every live link each round."""
    rank_of: Dict[int, int] = {}
    remaining: List[float] = []
    count: List[int] = []
    members: List[List[int]] = []
    ranked: List[List[int]] = []
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
    rates = [UNCONSTRAINED_RATE if not ranks else 0.0 for ranks in ranked]
    share = [left / flows for left, flows in zip(remaining, count)]
    heap = list(zip(share, range(len(share))))
    flowstate.heapify(heap)
    frozen = [False] * len(paths)
    while heap:
        bottleneck_share, bottleneck = flowstate.heappop(heap)
        if not count[bottleneck] or bottleneck_share != share[bottleneck]:
            continue
        for index in members[bottleneck]:
            if not frozen[index]:
                frozen[index] = True
                rates[index] = max(0.0, bottleneck_share)
                flowstate._drain(
                    ranked[index], multiplicity[index], bottleneck_share,
                    remaining, count,
                )
        for rank, flows in enumerate(count):
            if flows:
                share[rank] = remaining[rank] / flows
                flowstate.heappush(heap, (share[rank], rank))
    return rates
