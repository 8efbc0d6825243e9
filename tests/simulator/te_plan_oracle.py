"""The rescanning TE planner: the test oracle for ``ProactiveTeApp.plan``.

:meth:`repro.simulator.sdnapp.ProactiveTeApp.plan` indexes the flows by
hot link once per call and decides every flow it tries from a vectorised
decision table, rebuilt once per accepted move.  This module keeps the
planner those shortcuts replace: it rescans every flow's path for each
congested link and re-costs the current and every candidate path of each
flow it considers, one ``max`` over a dict at a time.  It decides the same
reroutes directly from the planning rule, so the differential tests hold
the shipped planner to it, and the operation-count gate checks that it
blows the per-flow bound.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

from repro.simulator.fairshare import Link
from repro.simulator.sdnapp import ProactiveTeApp, Reroute
from repro.topology.routing import Path, path_links_cached
from repro.traffic.flows import FlowSpec


def rescan_plan(
    app: ProactiveTeApp,
    flows: Mapping[int, FlowSpec],
    current_paths: Mapping[int, Path],
    rates: Mapping[int, float],
    utilization: Mapping[Link, float],
    capacities: Mapping[Link, float],
) -> List[Reroute]:
    """The reroutes ``app.plan`` must return for the same arguments."""
    config = app.config
    working_utilization: Dict[Link, float] = dict(utilization)
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
                if hot_link in path_links_cached(path) and flow_id not in moved_flows
            ),
            key=lambda flow_id: -rates.get(flow_id, 0.0),
        )
        for flow_id in candidates:
            if len(moves) >= config.max_moves_per_epoch:
                break
            flow = flows[flow_id]
            rate = rates.get(flow_id, 0.0)
            current_path = current_paths[flow_id]
            current_cost = _path_cost(current_path, working_utilization)
            best_path = None
            best_cost = current_cost - config.improvement_margin
            for candidate in app.provider.paths(flow.source, flow.destination):
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
        (utilization.get(link, 0.0) for link in path_links_cached(path)), default=0.0
    )


def _shift_load(
    utilization: Dict[Link, float],
    old_path: Path,
    new_path: Path,
    rate: float,
    capacities: Mapping[Link, float],
) -> None:
    """Move ``rate`` worth of load from old_path to new_path in place."""
    for link in path_links_cached(old_path):
        capacity = capacities.get(link, 0.0)
        if capacity > 0:
            utilization[link] = utilization.get(link, 0.0) - rate / capacity
    for link in path_links_cached(new_path):
        capacity = capacities.get(link, 0.0)
        if capacity > 0:
            utilization[link] = utilization.get(link, 0.0) + rate / capacity
