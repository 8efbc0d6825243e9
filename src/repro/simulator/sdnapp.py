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

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

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
        if not (math.isfinite(self.epoch) and self.epoch > 0):
            raise ValueError(f"epoch must be positive and finite: {self.epoch}")
        if not 0 < self.utilization_threshold <= 1:
            raise ValueError(
                f"utilization_threshold must be in (0, 1]: {self.utilization_threshold}"
            )
        if not isinstance(self.max_moves_per_epoch, numbers.Integral):
            raise ValueError(
                f"max_moves_per_epoch must be an integer: {self.max_moves_per_epoch}"
            )
        if self.max_moves_per_epoch < 0:
            raise ValueError("max_moves_per_epoch cannot be negative")
        if not (math.isfinite(self.improvement_margin) and self.improvement_margin >= 0):
            raise ValueError(
                f"improvement_margin must be finite and >= 0: {self.improvement_margin}"
            )


@dataclass(frozen=True)
class Reroute:
    """One proposed path change."""

    flow_id: int
    new_path: Path


# Reserved link slots of the utilization array a :class:`DecisionTable`
# reads.  A path's link row is padded with ``_PAD``; a path without links
# costs the ``_IDLE`` slot, as ``max(..., default=0.0)`` would; path 0, the
# sentinel that pads candidate rows, costs the ``_UNREACHABLE`` slot.
_PAD, _IDLE, _UNREACHABLE = 0, 1, 2
_RESERVED = (-math.inf, 0.0, math.inf)


class PathTable:
    """Integer ids for the paths and links the TE planner costs.

    Built lazily from a :class:`PathProvider` and kept for the app's
    lifetime, so it lives as long as the provider's own cache: one
    :class:`~repro.simulator.simulation.Simulation`.  Registering a path
    registers every candidate of its endpoints, and the path itself when it
    is not among them.  Each path ``p`` has a link row (its link slots,
    padded with ``_PAD``) and a candidate row (the ids of the candidates of
    ``p[0] -> p[-1]`` other than ``p``, in provider order, padded with the
    sentinel path 0).
    """

    def __init__(self, provider: PathProvider) -> None:
        self.provider = provider
        self.ids: Dict[Path, int] = {}
        self.paths: List[Path] = [()]
        self.slot_of: Dict[Link, int] = {}
        self.link_rows = np.full((64, 1), _PAD, dtype=np.intp)
        self.link_rows[0, 0] = _UNREACHABLE
        self.candidate_rows = np.zeros((64, provider.k_paths), dtype=np.intp)

    def id_of(self, path: Path) -> int:
        """``path``'s id, registering its endpoints' candidates on first sight."""
        path_id = self.ids.get(path)
        if path_id is None:
            pair = [self._add(candidate) for candidate in self.provider.paths(path[0], path[-1])]
            path_id = self._add(path)
            for member in dict.fromkeys(pair + [path_id]):
                others = [candidate for candidate in pair if candidate != member]
                self.candidate_rows[member, : len(others)] = others
        return path_id

    def _add(self, path: Path) -> int:
        path_id = self.ids.get(path)
        if path_id is not None:
            return path_id
        path_id = len(self.paths)
        slots = [
            self.slot_of.setdefault(link, len(self.slot_of) + len(_RESERVED))
            for link in path_links_cached(path)
        ] or [_IDLE]
        if path_id == len(self.link_rows):
            self.link_rows = np.vstack([self.link_rows, np.full_like(self.link_rows, _PAD)])
            self.candidate_rows = np.vstack(
                [self.candidate_rows, np.zeros_like(self.candidate_rows)]
            )
        width = self.link_rows.shape[1]
        if len(slots) > width:
            padding = np.full((len(self.link_rows), len(slots) - width), _PAD, dtype=np.intp)
            self.link_rows = np.hstack([self.link_rows, padding])
        self.link_rows[path_id, : len(slots)] = slots
        self.ids[path] = path_id
        self.paths.append(path)
        return path_id


class DecisionTable:
    """One plan's move decisions, per current path.

    Holds the working utilization by link slot, and the link rows of the
    plan's current paths and of their candidates only, so a rebuild costs
    just the paths this plan can try.
    """

    def __init__(
        self,
        table: PathTable,
        current_ids: List[int],
        utilization: Mapping[Link, float],
        margin: float,
    ) -> None:
        self.slot_of = table.slot_of
        self.margin = margin
        values = list(_RESERVED) + [0.0] * len(self.slot_of)
        for link, value in utilization.items():
            slot = self.slot_of.get(link)
            if slot is not None:
                values[slot] = value
        # A link ``utilization`` leaves out reads 0.0.
        self.utilization = np.array(values)
        current = np.array(current_ids, dtype=np.intp)
        self._candidate_ids = table.candidate_rows[current]
        needed, local = np.unique(
            np.concatenate([current, self._candidate_ids.ravel()]), return_inverse=True
        )
        self._link_rows = table.link_rows[needed]
        self._current = local[: len(current)]
        self._candidates = local[len(current):].reshape(self._candidate_ids.shape)
        self._rows = np.arange(len(current))

    def update(self, utilization: Mapping[Link, float], path: Path) -> None:
        """Copy the utilization of ``path``'s links from ``utilization``."""
        for link in path_links_cached(path):
            self.utilization[self.slot_of[link]] = utilization.get(link, 0.0)

    def decide(self) -> List[int]:
        """Per row of ``current_ids``, the id of the path a flow there moves
        to, or 0 to stay.

        A path's cost is the utilization of its hottest link.  A flow moves
        to the first cheapest candidate when that beats its current path's
        cost by more than ``margin``.
        """
        cost = self.utilization[self._link_rows].max(axis=1)
        candidate_cost = cost[self._candidates]
        best = candidate_cost.argmin(axis=1)
        accept = candidate_cost[self._rows, best] < cost[self._current] - self.margin
        return np.where(accept, self._candidate_ids[self._rows, best], 0).tolist()


class ProactiveTeApp:
    """Moves the biggest flows off the hottest links each epoch."""

    def __init__(self, provider: PathProvider, config: TeAppConfig = TeAppConfig()) -> None:
        self.provider = provider
        self.config = config
        self.table = PathTable(provider)

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
        timestamp trace events.  Each current path runs from its flow's
        source to its destination, as every path the simulator assigns does.

        A flow's decision depends only on its current path, whose endpoints
        fix the candidates, and on the working utilization, which only an
        accepted move writes.  So the flows crossing each congested link are
        indexed once per call, and the decisions of all the current paths
        that cross one are computed at once, before the first try and
        again after each accepted move (:meth:`DecisionTable.decide`).
        """
        threshold = self.config.utilization_threshold
        max_moves = self.config.max_moves_per_epoch
        working_utilization: Dict[Link, float] = dict(utilization)
        congested = sorted(
            (link for link, value in working_utilization.items() if value > threshold),
            key=lambda link: -working_utilization[link],
        )
        moves: List[Reroute] = []
        if congested:
            table = self.table
            # Hot link -> crossing flow ids, largest rate first: one stable
            # sort, so ties keep ``current_paths`` order in every bucket.
            crossing: Dict[Link, List[int]] = {link: [] for link in congested}
            # Path id -> its row in the decision table; row 0 is the
            # sentinel path 0, which never moves.
            row_of_path: Dict[int, int] = {0: 0}
            flow_rows: Dict[int, int] = {}
            for flow_id in sorted(current_paths, key=lambda flow_id: -rates.get(flow_id, 0.0)):
                path = current_paths[flow_id]
                hot = False
                # A path that lists a link twice enters its bucket twice,
                # back to back: the second entry is skipped as moved or
                # rejected.
                for link in path_links_cached(path):
                    bucket = crossing.get(link)
                    if bucket is not None:
                        bucket.append(flow_id)
                        hot = True
                if hot:
                    flow_rows[flow_id] = row_of_path.setdefault(
                        table.id_of(path), len(row_of_path)
                    )
            decision_table = DecisionTable(
                table, list(row_of_path), working_utilization,
                self.config.improvement_margin,
            )
            decisions = None
            for hot_link in congested:
                if len(moves) >= max_moves:
                    break
                for flow_id in crossing[hot_link]:
                    if len(moves) >= max_moves:
                        break
                    if decisions is None:
                        decisions = decision_table.decide()
                    best_id = decisions[flow_rows[flow_id]]
                    if not best_id:
                        continue
                    best_path = table.paths[best_id]
                    moves.append(Reroute(flow_id=flow_id, new_path=best_path))
                    # A moved flow is tried no more: it now reads row 0.
                    flow_rows[flow_id] = 0
                    self._shift_load(
                        working_utilization, current_paths[flow_id], best_path,
                        rates.get(flow_id, 0.0), capacities,
                    )
                    decision_table.update(working_utilization, current_paths[flow_id])
                    decision_table.update(working_utilization, best_path)
                    # The move rewrote utilizations: every decision may be stale.
                    decisions = None
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
