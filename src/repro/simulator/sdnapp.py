"""The proactive traffic-engineering SDNApp (Section 8.1.1).

"[A] proactive traffic engineering SDNApp [33] that periodically
reconfigures the network by using control plane actions to move congested
flows away from congested links unto links with available capacity."

Every epoch the app inspects link utilizations, picks the most congested
links, and proposes moving their largest flows to the least-loaded of each
flow's k candidate paths.  It is *proactive*: no packet-in messages, so no
startup latency — the only control-plane cost is the reconfiguration
FlowMods, which is exactly the cost Hermes bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Set

from ..obs.tracer import get_tracer
from ..topology.routing import Path, PathProvider, path_links_cached
from ..traffic.flows import FlowSpec
from .fairshare import Link


@dataclass(frozen=True)
class TeAppConfig:
    """Tunables of the TE application.

    Attributes:
        epoch: reconfiguration period in seconds.
        utilization_threshold: links above this are congestion candidates.
        max_moves_per_epoch: cap on reroutes issued per epoch.
        improvement_margin: a move must reduce the flow's bottleneck
            utilization by at least this much to be worth the FlowMods.
    """

    epoch: float = 1.0
    utilization_threshold: float = 0.7
    max_moves_per_epoch: int = 16
    improvement_margin: float = 0.05

    def __post_init__(self) -> None:
        if self.epoch <= 0:
            raise ValueError(f"epoch must be positive: {self.epoch}")
        if not 0 < self.utilization_threshold <= 1:
            raise ValueError(
                f"utilization_threshold must be in (0, 1]: {self.utilization_threshold}"
            )
        if self.max_moves_per_epoch < 0:
            raise ValueError("max_moves_per_epoch cannot be negative")


@dataclass(frozen=True)
class Reroute:
    """One proposed path change."""

    flow_id: int
    new_path: Path


class ProactiveTeApp:
    """Moves the biggest flows off the hottest links each epoch."""

    def __init__(self, provider: PathProvider, config: TeAppConfig = TeAppConfig()) -> None:
        self.provider = provider
        self.config = config

    def plan(
        self,
        flows: Mapping[int, FlowSpec],
        current_paths: Mapping[int, Path],
        rates: Mapping[int, float],
        utilization: Mapping[Link, float],
        capacities: Mapping[Link, float],
        now: float = 0.0,
    ) -> List[Reroute]:
        """Propose up to ``max_moves_per_epoch`` reroutes for this epoch.

        Congested links are visited hottest first.  On each, the flows
        that cross it are tried largest rate first (ties in
        ``current_paths`` order), and a flow moves to its cheapest
        candidate path when that beats its current path by
        ``improvement_margin``.  Utilization is updated incrementally as
        moves are chosen so one epoch's moves do not all pile onto the same
        cold link.  ``now`` is the sim time of the epoch, used only to
        timestamp trace events.

        The flows crossing each congested link are indexed once per call.
        A path's cost is a ``max`` over the working utilization, which only
        an accepted move writes, so each path is costed at most once
        between moves, and a flow rejected since the last move is not tried
        again: the costs that rejected it still hold.
        """
        threshold = self.config.utilization_threshold
        max_moves = self.config.max_moves_per_epoch
        margin = self.config.improvement_margin
        working_utilization: Dict[Link, float] = dict(utilization)
        congested = sorted(
            (link for link, value in working_utilization.items() if value > threshold),
            key=lambda link: -working_utilization[link],
        )
        moves: List[Reroute] = []
        if congested:
            # Hot link -> crossing flow ids, largest rate first: one stable
            # sort, so ties keep ``current_paths`` order in every bucket.
            crossing: Dict[Link, List[int]] = {link: [] for link in congested}
            for flow_id in sorted(current_paths, key=lambda flow_id: -rates.get(flow_id, 0.0)):
                # A path that lists a link twice enters its bucket twice,
                # back to back: the second entry is skipped as moved or
                # rejected.
                for link in path_links_cached(current_paths[flow_id]):
                    bucket = crossing.get(link)
                    if bucket is not None:
                        bucket.append(flow_id)
            costs: Dict[Path, float] = {}
            moved_flows: Set[int] = set()
            rejected: Set[int] = set()
            for hot_link in congested:
                if len(moves) >= max_moves:
                    break
                for flow_id in crossing[hot_link]:
                    if len(moves) >= max_moves:
                        break
                    if flow_id in moved_flows or flow_id in rejected:
                        continue
                    flow = flows[flow_id]
                    current_path = current_paths[flow_id]
                    best_path = None
                    current_cost = costs.get(current_path)
                    if current_cost is None:
                        current_cost = costs[current_path] = self._path_cost(
                            current_path, working_utilization
                        )
                    best_cost = current_cost - margin
                    for candidate in self.provider.paths(flow.source, flow.destination):
                        if candidate == current_path:
                            continue
                        cost = costs.get(candidate)
                        if cost is None:
                            cost = costs[candidate] = self._path_cost(
                                candidate, working_utilization
                            )
                        if cost < best_cost:
                            best_cost = cost
                            best_path = candidate
                    if best_path is None:
                        rejected.add(flow_id)
                        continue
                    moves.append(Reroute(flow_id=flow_id, new_path=best_path))
                    moved_flows.add(flow_id)
                    self._shift_load(
                        working_utilization, current_path, best_path,
                        rates.get(flow_id, 0.0), capacities,
                    )
                    # The move rewrote utilizations: every cost and
                    # rejection may be stale.
                    costs.clear()
                    rejected.clear()
                    if working_utilization.get(hot_link, 0.0) <= threshold:
                        break
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "te.plan", time=now, category="controller",
                congested=len(congested), moves=len(moves),
            )
        return moves

    @staticmethod
    def _path_cost(path: Path, utilization: Mapping[Link, float]) -> float:
        """A path's cost: the utilization of its hottest link."""
        return max(
            map(utilization.get, path_links_cached(path), repeat(0.0)), default=0.0
        )

    @staticmethod
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
                # det: allow(shared-state-mutation) -- planner scratch dict, local to one plan() call
                utilization[link] = utilization.get(link, 0.0) - rate / capacity
        for link in path_links_cached(new_path):
            capacity = capacities.get(link, 0.0)
            if capacity > 0:
                # det: allow(shared-state-mutation) -- planner scratch dict, local to one plan() call
                utilization[link] = utilization.get(link, 0.0) + rate / capacity
