"""Columnar flow state: array-backed per-flow bookkeeping for million-flow runs.

The simulator keeps its per-flow state in columns, not one Python object
per flow:

* :class:`FlowStore` holds remaining-bytes / rate / flag / blackhole /
  path-id columns as numpy arrays.  Each distinct path is interned once:
  the store memoizes its id and its dense link-id list, so a row carries
  only the path's id and a reroute rewrites one integer.
* :meth:`FlowStore.recompute` runs one progressive filling,
  :func:`_fill_paths`.  It runs over *distinct paths with multiplicities*
  (path classes), not over flows, and takes each bottleneck from a heap
  keyed by ``(share, first-encounter rank)``.

**Cost.**  With ``P`` distinct active paths, ``I`` (path, link)
incidences among them and ``L`` links they use, one filling is
O(n + I log L) for ``n`` active flows: one C-level count of the rows'
path ids, one walk of each path's links to rank them, one walk of each
path's links when it freezes, and at most ``L + I`` heap pushes.  No
round rescans the surviving links or pairs.

**Exactness contract.**  The filling is *bit-identical* to the dict
reference :func:`~repro.simulator.fairshare.max_min_fair_rates`, not
merely close.  Capacities enter as the same numbers and every share is
the same ``remaining / count`` division.  The four steps from the flow
loop to the heap are each exact:

1. Flows on the same path always freeze together: a bottleneck link
   freezes every flow on it, and same-path flows share every link.  So a
   path class with ``m`` flows stands for its flows, and it adds ``m`` to
   the count of each link it uses.
2. Classes are ordered by their first member's row (admission order).
   A later member of a class reaches no link its first member did not, so
   first-encounter link ranks over classes equal those over rows: the
   order the dict's ``flows_on_link`` is built in.
3. A heap pop of the smallest ``(share, rank)`` picks the link that the
   dict's strict-``<`` scan in first-encounter order picks (the lowest
   share, ties to the lowest rank).  Each push records the link's current
   share, and a popped entry is stale, and skipped, unless the link still
   has flows and the entry's share equals the current one.
4. Every frozen flow subtracts the *same* bottleneck share from each of
   its links, one subtraction at a time (``m`` of them for a class of
   ``m``), so each link's float sequence is the dict's.

``tests/simulator/test_flowstate.py`` pins the equality against that
reference, through random workloads and through random store churn.
"""

from __future__ import annotations

import math
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..topology.routing import Path, path_links_cached
from .fairshare import Link, UNCONSTRAINED_RATE

#: Flag bits of the :class:`FlowStore` ``flags`` column.
FLAG_ACTIVE = np.uint8(0x1)
FLAG_HAS_RULES = np.uint8(0x2)
FLAG_PENDING = np.uint8(0x4)


def _drain(
    ranks: List[int],
    flows: int,
    share: float,
    remaining: List[float],
    count: List[int],
) -> None:
    """Walk a freezing path's links once: take its ``flows`` flows off
    each link, subtracting ``share`` once per flow."""
    for rank in ranks:
        left = remaining[rank] - share
        if flows > 1:
            for _ in range(flows - 1):
                left -= share
        # det: allow(shared-state-mutation) -- the caller's scratch lists, local to one filling
        remaining[rank], count[rank] = left, count[rank] - flows


def _fill_paths(
    paths: Sequence[Sequence[int]],
    multiplicity: Sequence[int],
    capacity: Sequence[float],
) -> List[float]:
    """Max-min fair rate per path class (see the module docstring).

    Args:
        paths: the link ids of each class, classes in the order of their
            first member; no path may repeat a link.
        multiplicity: the number of flows in each class.
        capacity: capacity per link id.

    Returns:
        the rate of each class's flows, aligned with ``paths``:
        :data:`UNCONSTRAINED_RATE` for a linkless path.
    """
    rank_of: Dict[int, int] = {}
    remaining: List[float] = []
    count: List[int] = []
    members: List[List[int]] = []
    ranked: List[List[int]] = []
    rates = [0.0] * len(paths)
    for index, (links, flows) in enumerate(zip(paths, multiplicity)):
        ranks = []
        for link in links:
            rank = rank_of.get(link)
            if rank is None:
                rank = rank_of[link] = len(remaining)
                remaining.append(capacity[link])
                count.append(flows)
                members.append([index])
            else:
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
        # Stale unless the link still has flows and this is its current share.
        if not count[bottleneck] or bottleneck_share != share[bottleneck]:
            continue
        rate = bottleneck_share if bottleneck_share > 0.0 else 0.0
        touched = set()
        for index in members[bottleneck]:
            if frozen[index]:
                continue
            frozen[index] = True
            rates[index] = rate
            _drain(
                ranked[index], multiplicity[index], bottleneck_share,
                remaining, count,
            )
            touched.update(ranked[index])
        # det: allow(unordered-iteration) -- push order cannot matter: pops follow the (share, rank) keys alone
        for rank in touched:
            if count[rank]:
                share[rank] = remaining[rank] / count[rank]
                heappush(heap, (share[rank], rank))
    return rates


class FlowStore:
    """Columnar per-flow simulation state over one topology's links.

    Rows are allocated in admission order and never recycled in place —
    completed rows are masked out and reclaimed by a *stable* compaction
    (triggered when at most half the high-water rows are still active),
    so ascending row order always equals admission order.  Every
    argmin/iteration tie-break therefore resolves to the earliest-admitted
    flow.
    """

    def __init__(
        self, link_capacities: Mapping[Link, float], capacity: int = 1024
    ) -> None:
        """Create an empty store for a topology.

        Args:
            link_capacities: capacity per canonical link tuple; the
                mapping's iteration order fixes the dense link ids.
            capacity: initial row capacity (grows by doubling).
        """
        links = list(link_capacities)
        self._link_id: Dict[Link, int] = {
            link: index for index, link in enumerate(links)
        }
        self.link_capacity = np.array(
            [link_capacities[link] for link in links], dtype=np.float64
        )
        # Interned paths: id per path, and per id the path and its
        # dense link ids.
        self._path_id: Dict[Path, int] = {}
        self._path_of: List[Path] = []
        self._path_links: List[List[int]] = []
        self._link_table_cache: Optional[np.ndarray] = None
        capacity = max(int(capacity), 16)
        self._cap = capacity
        self.flow_id = np.zeros(capacity, dtype=np.int64)
        self.remaining = np.zeros(capacity, dtype=np.float64)
        self.rate = np.zeros(capacity, dtype=np.float64)
        self.flags = np.zeros(capacity, dtype=np.uint8)
        self.blackholed_since = np.full(capacity, np.nan, dtype=np.float64)
        self.path_id = np.zeros(capacity, dtype=np.int64)
        self._specs: List[Optional[object]] = [None] * capacity
        self._row_of: Dict[int, int] = {}
        self.size = 0  # high-water row count since the last compaction
        self._active_rows_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __contains__(self, flow_id: int) -> bool:
        """True while ``flow_id`` is active."""
        return flow_id in self._row_of

    def __len__(self) -> int:
        """Number of active flows."""
        return len(self._row_of)

    def row(self, flow_id: int) -> int:
        """The row index of an active flow.

        Raises:
            KeyError: for unknown/completed flows.
        """
        return self._row_of[flow_id]

    def active_rows(self) -> np.ndarray:
        """Ascending row indices of active flows (cached between churns)."""
        if self._active_rows_cache is None:
            self._active_rows_cache = np.flatnonzero(
                self.flags[: self.size] & FLAG_ACTIVE
            )
        return self._active_rows_cache

    def flow_ids(self) -> List[int]:
        """Active flow ids in admission order."""
        return [int(fid) for fid in self.flow_id[self.active_rows()]]

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def _intern(self, path: Path) -> int:
        """The path's id, interning it (and its link ids) on first use.

        Raises:
            KeyError: when the path uses a link outside the topology.
            ValueError: when the path traverses a link twice.
        """
        path_id = self._path_id.get(path)
        if path_id is None:
            ids = []
            for link in path_links_cached(path):
                link_id = self._link_id.get(link)
                if link_id is None:
                    raise KeyError(f"path {path!r} uses unknown link {link}")
                ids.append(link_id)
            if len(set(ids)) != len(ids):
                raise ValueError(f"path {path!r} traverses a link twice")
            path_id = self._path_id[path] = len(self._path_of)
            self._path_of.append(path)
            self._path_links.append(ids)
            self._link_table_cache = None
        return path_id

    def _link_table(self) -> np.ndarray:
        """Link ids per path id as a matrix, padded with ``len(links)``
        (one past the last link id); rebuilt after a new path is interned."""
        if self._link_table_cache is None:
            width = max(map(len, self._path_links), default=0)
            table = np.full(
                (len(self._path_links), width),
                self.link_capacity.size,
                dtype=np.int64,
            )
            for path_id, links in enumerate(self._path_links):
                table[path_id, : len(links)] = links
            self._link_table_cache = table
        return self._link_table_cache

    def _grow_rows(self) -> None:
        new_cap = self._cap * 2
        for name in ("flow_id", "remaining", "rate", "flags",
                     "blackholed_since", "path_id"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            if name == "blackholed_since":
                grown.fill(np.nan)
            grown[: self._cap] = old
            setattr(self, name, grown)
        self._specs.extend([None] * (new_cap - self._cap))
        self._cap = new_cap

    def add(self, spec, path: Path, has_installed_rules: bool = False) -> int:
        """Admit a flow (remaining bytes = ``spec.size``); returns its row.

        Raises:
            ValueError: when the flow id is already active, or the path
                traverses a link twice.
            KeyError: when the path uses an unknown link.
        """
        flow_id = spec.flow_id
        if flow_id in self._row_of:
            raise ValueError(f"flow {flow_id} is already active")
        path_id = self._intern(path)
        if self.size == self._cap:
            if len(self._row_of) <= self.size // 2 and self.size >= 64:
                self.compact()
            else:
                self._grow_rows()
        row = self.size
        self.size = row + 1
        self.flow_id[row] = flow_id
        self.remaining[row] = float(spec.size)
        self.rate[row] = 0.0
        self.flags[row] = FLAG_ACTIVE | (
            FLAG_HAS_RULES if has_installed_rules else np.uint8(0)
        )
        self.blackholed_since[row] = np.nan
        self.path_id[row] = path_id
        self._specs[row] = spec
        self._row_of[flow_id] = row
        self._active_rows_cache = None
        return row

    def remove(self, flow_id: int) -> None:
        """Retire a completed flow (its row is reclaimed by compaction).

        Raises:
            KeyError: for unknown/completed flows.
        """
        row = self._row_of.pop(flow_id)
        self.flags[row] = np.uint8(0)
        self._specs[row] = None
        self._active_rows_cache = None

    def compact(self) -> None:
        """Stable compaction: drop retired rows, keep admission order.

        Stability is load-bearing — argmin tie-breaks resolve to the
        lowest row, which must keep meaning "earliest admitted".
        """
        rows = self.active_rows()
        n = int(rows.size)
        for name in ("flow_id", "remaining", "rate", "flags",
                     "blackholed_since", "path_id"):
            column = getattr(self, name)
            column[:n] = column[rows]
        self._specs[:n] = [self._specs[row] for row in rows.tolist()]
        self._specs[n : self.size] = [None] * (self.size - n)
        self.flags[n : self.size] = np.uint8(0)
        self.size = n
        self._row_of = {
            int(self.flow_id[row]): row for row in range(n)
        }
        self._active_rows_cache = None

    def set_path(self, flow_id: int, path: Path) -> None:
        """Repoint a flow at a new path.

        Raises:
            KeyError: for unknown/completed flows, or a path with an
                unknown link.
            ValueError: when the path traverses a link twice.
        """
        row = self._row_of[flow_id]
        self.path_id[row] = self._intern(path)

    # ------------------------------------------------------------------
    # Column accessors (by flow id)
    # ------------------------------------------------------------------
    def spec(self, flow_id: int):
        """The flow's :class:`~repro.traffic.flows.FlowSpec`."""
        return self._specs[self._row_of[flow_id]]

    def path(self, flow_id: int) -> Path:
        """The flow's current path."""
        return self._path_of[self.path_id[self._row_of[flow_id]]]

    def _flag(self, flow_id: int, bit: np.uint8) -> bool:
        return bool(self.flags[self._row_of[flow_id]] & bit)

    def _set_flag(self, flow_id: int, bit: np.uint8, value: bool) -> None:
        row = self._row_of[flow_id]
        if value:
            self.flags[row] |= bit
        else:
            self.flags[row] &= ~bit

    def has_installed_rules(self, flow_id: int) -> bool:
        """True once the flow's own rules are installed."""
        return self._flag(flow_id, FLAG_HAS_RULES)

    def set_has_installed_rules(self, flow_id: int, value: bool) -> None:
        """Set/clear the installed-rules flag."""
        self._set_flag(flow_id, FLAG_HAS_RULES, value)

    def set_pending_activation(self, flow_id: int, value: bool) -> None:
        """Set/clear the pending-activation flag."""
        self._set_flag(flow_id, FLAG_PENDING, value)

    def blackhole_start(self, flow_id: int) -> Optional[float]:
        """When the flow started blackholing, or None."""
        value = self.blackholed_since[self._row_of[flow_id]]
        return None if math.isnan(value) else float(value)

    def set_blackhole_start(
        self, flow_id: int, at_time: Optional[float]
    ) -> None:
        """Record (or clear, with None) the blackhole start instant."""
        self.blackholed_since[self._row_of[flow_id]] = (
            math.nan if at_time is None else at_time
        )

    # ------------------------------------------------------------------
    # Array physics
    # ------------------------------------------------------------------
    def advance(self, elapsed: float) -> None:
        """Drain ``rate * elapsed / 8`` bytes from every active flow."""
        rows = self.active_rows()
        if rows.size == 0:
            return
        drained = self.remaining[rows] - self.rate[rows] * elapsed / 8.0
        drained[drained < 0.0] = 0.0
        self.remaining[rows] = drained

    def next_completion(self, now: float) -> Tuple[float, Optional[int]]:
        """Earliest-finishing flow ``(eta, flow_id)`` among flows with a
        positive rate; ties go to the earliest-admitted flow (argmin over
        admission-ordered rows)."""
        rows = self.active_rows()
        if rows.size == 0:
            return math.inf, None
        rates = self.rate[rows]
        positive = rates > 0.0
        if not positive.any():
            return math.inf, None
        selected = rows[positive]
        etas = now + self.remaining[selected] * 8.0 / rates[positive]
        best = int(np.argmin(etas))
        return float(etas[best]), int(self.flow_id[selected[best]])

    def recompute(self) -> None:
        """Recompute the rate column: max-min fair share over the active
        flows' distinct paths.

        Bit-identical to running the dict backend over the same flows —
        see the module docstring's exactness contract.
        """
        rows = self.active_rows()
        if rows.size == 0:
            return
        path_ids = self.path_id[rows]
        # Counter keeps first-insertion order: classes in first-member order.
        classes = Counter(path_ids.tolist())
        filled = _fill_paths(
            [self._path_links[path_id] for path_id in classes],
            list(classes.values()),
            self.link_capacity.tolist(),
        )
        by_path = np.empty(len(self._path_links), dtype=np.float64)
        by_path[list(classes)] = filled
        self.rate[rows] = by_path[path_ids]

    def utilization(self) -> Dict[Link, float]:
        """Per-link utilization, identical to
        :func:`~repro.simulator.fairshare.link_utilization` over the active
        flows' ``path_links_cached`` links: the same values, dict insertion
        order (so TE planning tie-breaks don't move) and key objects.

        Each key is the link tuple of the first active path that uses the
        link, so the TE planner's ``link in path_links_cached(path)`` tests
        and dict lookups succeed on identity, not tuple comparison.
        """
        rows = self.active_rows()
        if rows.size == 0:
            return {}
        path_ids = self.path_id[rows]
        table = self._link_table()
        # Row-major adds: each link sums its flows' rates in admission
        # order, as the dict reference does; padding lands in the extra slot.
        load = np.zeros(self.link_capacity.size + 1, dtype=np.float64)
        np.add.at(
            load,
            table[path_ids].ravel(),
            np.repeat(self.rate[rows], table.shape[1]),
        )
        first_key: Dict[int, Link] = {}
        for path_id in dict.fromkeys(path_ids.tolist()):
            for link in path_links_cached(self._path_of[path_id]):
                first_key.setdefault(self._link_id[link], link)
        result: Dict[Link, float] = {}
        for link_id, link in first_key.items():
            capacity = float(self.link_capacity[link_id])
            if capacity > 0.0:
                result[link] = float(load[link_id]) / capacity
        return result

    # ------------------------------------------------------------------
    # Link events
    # ------------------------------------------------------------------
    def fail_link(self, link: Link) -> None:
        """Zero a failed link's capacity in the column."""
        link_id = self._link_id.get(link)
        if link_id is not None:
            self.link_capacity[link_id] = 0.0

    def flows_on_link(self, link: Link) -> List[int]:
        """Active flow ids whose path traverses ``link``, admission order."""
        link_id = self._link_id.get(link)
        rows = self.active_rows()
        if link_id is None or rows.size == 0:
            return []
        hits = (self._link_table()[self.path_id[rows]] == link_id).any(axis=1)
        return [int(fid) for fid in self.flow_id[rows[hits]]]

    # ------------------------------------------------------------------
    # TE snapshot
    # ------------------------------------------------------------------
    def te_views(
        self,
    ) -> Tuple[Dict[int, object], Dict[int, Path], Dict[int, float]]:
        """``(flows, eligible_paths, rates)`` dicts for one TE epoch.

        Keyed by flow id in admission order; ``eligible_paths`` leaves out
        flows whose previous move is still pending activation.  Plain
        dicts, because the TE app reads every entry several times.
        """
        rows = self.active_rows()
        flow_ids = self.flow_id[rows].tolist()
        rates = dict(zip(flow_ids, self.rate[rows].tolist()))
        pending = (self.flags[rows] & FLAG_PENDING).tolist()
        path_ids = self.path_id[rows].tolist()
        flows: Dict[int, object] = {}
        eligible: Dict[int, Path] = {}
        for flow_id, row, is_pending, path_id in zip(
            flow_ids, rows.tolist(), pending, path_ids
        ):
            flows[flow_id] = self._specs[row]
            if not is_pending:
                eligible[flow_id] = self._path_of[path_id]
        return flows, eligible, rates
