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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..obs.tracer import get_tracer
from ..topology.routing import Path, PathProvider
from .flowstate import FlowStore


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


class DecisionTable:
    """One plan's move decisions, per current path.

    Holds the link rows of the plan's current paths and of their
    candidates only, so a rebuild costs just the paths this plan can try.
    It reads the plan's working utilization, which the planner updates in
    place as it accepts moves.
    """

    def __init__(
        self,
        link_rows: np.ndarray,
        utilization: np.ndarray,
        current: List[int],
        candidates: np.ndarray,
        margin: float,
    ) -> None:
        """Args:
            link_rows: the store's link-row matrix; its padding indexes the
                last slot of ``utilization``.
            utilization: working utilization per link id, then a ``-inf``
                slot, so padding never wins a path's max.
            current: store path ids of the current paths, one per row.
            candidates: per row, the store path ids of the candidates,
                padded with -1 (one row of ``k_paths`` per current path).
            margin: the improvement a move must beat.
        """
        self.utilization = utilization
        self.margin = margin
        self._candidate_ids = candidates
        ids = np.concatenate([current, candidates.ravel()]).astype(np.intp)
        needed = np.unique(ids[ids >= 0])
        # Padding maps to -1, which reads the +inf appended to the costs.
        local = np.where(ids >= 0, np.searchsorted(needed, ids), -1)
        self._link_rows = link_rows[needed]
        self._current = local[: len(current)]
        self._candidates = local[len(current):].reshape(candidates.shape)
        self._rows = np.arange(len(current))

    def decide(self) -> List[int]:
        """Per row of ``current``, the store path id a flow there moves
        to, or -1 to stay.

        A path's cost is the utilization of its hottest link.  A flow moves
        to the first cheapest candidate when that beats its current path's
        cost by more than ``margin``.
        """
        cost = np.append(self.utilization[self._link_rows].max(axis=1), math.inf)
        candidate_cost = cost[self._candidates]
        best = candidate_cost.argmin(axis=1)
        accept = candidate_cost[self._rows, best] < cost[self._current] - self.margin
        return np.where(accept, self._candidate_ids[self._rows, best], -1).tolist()


class ProactiveTeApp:
    """Moves the biggest flows off the hottest links each epoch.

    Paths are the ids of ``store``, the simulation's one path index: the
    app interns the candidates of each path it tries there and costs them
    from the store's link rows.
    """

    def __init__(
        self, provider: PathProvider, store: FlowStore, config: TeAppConfig = TeAppConfig()
    ) -> None:
        self.provider = provider
        self.store = store
        self.config = config
        # Store path id -> the ids of the other candidates of its
        # endpoints, in provider order, padded with -1 to k_paths.
        self._candidates: Dict[int, List[int]] = {}

    def _candidate_row(self, path_id: int) -> List[int]:
        """The candidate row of store path ``path_id``, interning the
        candidates of its endpoints on first sight."""
        others = self._candidates.get(path_id)
        if others is None:
            store, k = self.store, self.provider.k_paths
            path = store.path_of(path_id)
            pair = [
                store.intern(candidate)
                for candidate in self.provider.paths(path[0], path[-1])
            ]
            for member in dict.fromkeys(pair + [path_id]):
                row = [candidate for candidate in pair if candidate != member]
                self._candidates[member] = row + [-1] * (k - len(row))
            others = self._candidates[path_id]
        return others

    def plan(
        self,
        flow_ids: Sequence[int],
        path_ids: Sequence[int],
        rates: Sequence[float],
        utilization: Tuple[np.ndarray, np.ndarray],
        now: float = 0.0,
    ) -> List[Reroute]:
        """Propose up to ``max_moves_per_epoch`` reroutes for this epoch.

        ``flow_ids``, ``path_ids`` (store path ids) and ``rates`` list the
        flows that may move, in admission order, as
        :meth:`FlowStore.te_views` returns them.  ``utilization`` is
        ``(link ids, utilizations)``, as :meth:`FlowStore.utilization`
        returns it; a link it leaves out reads 0.0, except a link whose
        capacity is zero (a failed link), which reads +inf.

        Congested links are visited hottest first, ties in ``utilization``
        order.  On each, the flows that cross it are tried largest rate
        first (ties in admission order), and a flow moves to its cheapest
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
        links, values = utilization
        hot = values > threshold
        # Hottest first; the stable sort keeps ties in ``utilization`` order.
        congested = links[hot][np.argsort(-values[hot], kind="stable")].tolist()
        moves: List[Reroute] = []
        if congested:
            store = self.store
            capacity = store.link_capacity
            # Working utilization per link id; a dead (zero-capacity) link
            # costs +inf, so no path through it is ever cheaper.  The last
            # slot, which the link rows' padding reads, never wins a
            # path's max.
            working = np.zeros(capacity.size + 1)
            working[links] = values
            working[:-1][capacity == 0] = math.inf
            working[-1] = -math.inf
            # Hot link -> crossing flows (indexes into the arguments),
            # largest rate first: one stable sort, so ties keep admission
            # order in every bucket.
            crossing: Dict[int, List[int]] = {link: [] for link in congested}
            # Current path id -> its row in the decision table, and per
            # crossing flow its row; a moved flow's row becomes -1.
            row_of_path: Dict[int, int] = {}
            flow_rows: Dict[int, int] = {}
            by_rate = np.argsort(-np.asarray(rates, dtype=np.float64), kind="stable")
            for index in by_rate.tolist():
                path_id = path_ids[index]
                crosses = False
                for link in store.link_ids(path_id):
                    bucket = crossing.get(link)
                    if bucket is not None:
                        bucket.append(index)
                        crosses = True
                if crosses:
                    flow_rows[index] = row_of_path.setdefault(path_id, len(row_of_path))
            current = list(row_of_path)
            # Registering candidates may extend the store's link rows, so
            # it comes before the table reads them.
            candidates = np.array(
                [self._candidate_row(path_id) for path_id in current], dtype=np.intp
            ).reshape(len(current), self.provider.k_paths)
            decision_table = DecisionTable(
                store.link_rows, working, current, candidates,
                self.config.improvement_margin,
            )
            decisions = None
            for hot_link in congested:
                if len(moves) >= max_moves:
                    break
                for index in crossing[hot_link]:
                    if len(moves) >= max_moves:
                        break
                    row = flow_rows[index]
                    if row < 0:
                        continue
                    if decisions is None:
                        decisions = decision_table.decide()
                    best_id = decisions[row]
                    if best_id < 0:
                        continue
                    moves.append(
                        Reroute(flow_id=flow_ids[index], new_path=store.path_of(best_id))
                    )
                    flow_rows[index] = -1
                    self._shift_load(
                        working, store.link_ids(path_ids[index]), store.link_ids(best_id),
                        rates[index], capacity,
                    )
                    # The move rewrote utilizations: every decision may be stale.
                    decisions = None
                    if working[hot_link] <= threshold:
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
        utilization: np.ndarray,
        old_links: List[int],
        new_links: List[int],
        rate: float,
        capacity: np.ndarray,
    ) -> None:
        """Move ``rate`` worth of load from old_links to new_links in place,
        one link at a time in path order."""
        for link in old_links:
            if capacity[link] > 0:
                utilization[link] -= rate / capacity[link]
        for link in new_links:
            if capacity[link] > 0:
                utilization[link] += rate / capacity[link]
