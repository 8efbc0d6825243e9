"""The rescanning TE planner: the test oracle for ``ProactiveTeApp.plan``.

:meth:`repro.simulator.sdnapp.ProactiveTeApp.plan` indexes the flows by
hot link once per call and decides every flow it tries from a vectorised
decision table over the store's path and link ids, rebuilt once per
accepted move.  This module keeps the planner those shortcuts replace: it
turns the plan's arguments back into paths and links by name, rescans
every flow's path for each congested link and re-costs the current and
every candidate path of each flow it considers, one ``max`` over a dict at
a time.  It decides the same reroutes directly from the planning rule, so
the differential tests hold the shipped planner to it, and the
operation-count gate checks that it blows the per-flow bound.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.simulator.fairshare import Link
from repro.simulator.sdnapp import ProactiveTeApp, Reroute
from repro.topology.routing import Path, path_links


def rescan_plan(
    app: ProactiveTeApp,
    flow_ids: Sequence[int],
    path_ids: Sequence[int],
    rates: Sequence[float],
    utilization: Tuple[np.ndarray, np.ndarray],
) -> List[Reroute]:
    """The reroutes ``app.plan`` must return for the same arguments."""
    config = app.config
    store = app.store
    link_of = {link_id: link for link, link_id in store._link_id.items()}
    capacities = {
        link: float(store.link_capacity[link_id]) for link_id, link in link_of.items()
    }
    current_paths = {
        flow_id: store.path_of(path_id) for flow_id, path_id in zip(flow_ids, path_ids)
    }
    rate_of = dict(zip(flow_ids, rates))
    links, values = utilization
    working_utilization: Dict[Link, float] = {
        link_of[link_id]: value for link_id, value in zip(links.tolist(), values.tolist())
    }
    congested = sorted(
        (
            link
            for link, value in working_utilization.items()
            if value > config.utilization_threshold
        ),
        key=lambda link: -working_utilization[link],
    )
    moves: List[Reroute] = []
    moved_flows: Set[int] = set()
    for hot_link in congested:
        if len(moves) >= config.max_moves_per_epoch:
            break
        # Largest flows first: moving them relieves the most load.
        candidates = sorted(
            (
                flow_id
                for flow_id, path in current_paths.items()
                if hot_link in path_links(path) and flow_id not in moved_flows
            ),
            key=lambda flow_id: -rate_of[flow_id],
        )
        for flow_id in candidates:
            if len(moves) >= config.max_moves_per_epoch:
                break
            rate = rate_of[flow_id]
            current_path = current_paths[flow_id]
            current_cost = _path_cost(current_path, working_utilization)
            best_path = None
            best_cost = current_cost - config.improvement_margin
            for candidate in app.provider.paths(current_path[0], current_path[-1]):
                if candidate == current_path:
                    continue
                cost = _path_cost(candidate, working_utilization)
                if cost < best_cost:
                    best_cost = cost
                    best_path = candidate
            if best_path is None:
                continue
            moves.append(Reroute(flow_id=flow_id, new_path=best_path))
            moved_flows.add(flow_id)
            _shift_load(working_utilization, current_path, best_path, rate, capacities)
            if working_utilization.get(hot_link, 0.0) <= config.utilization_threshold:
                break
    return moves


def _path_cost(path: Path, utilization: Mapping[Link, float]) -> float:
    """A path's cost: the utilization of its hottest link."""
    return max(
        (utilization.get(link, 0.0) for link in path_links(path)), default=0.0
    )


def _shift_load(
    utilization: Dict[Link, float],
    old_path: Path,
    new_path: Path,
    rate: float,
    capacities: Mapping[Link, float],
) -> None:
    """Move ``rate`` worth of load from old_path to new_path in place."""
    for link in path_links(old_path):
        capacity = capacities.get(link, 0.0)
        if capacity > 0:
            utilization[link] = utilization.get(link, 0.0) - rate / capacity
    for link in path_links(new_path):
        capacity = capacities.get(link, 0.0)
        if capacity > 0:
            utilization[link] = utilization.get(link, 0.0) + rate / capacity
