"""Columnar flow state: array-backed per-flow bookkeeping for million-flow runs.

The simulator keeps its per-flow state in columns, not one Python object
per flow:

* :class:`FlowStore` holds remaining-bytes / rate / flag / blackhole /
  path-id columns as numpy arrays.  Each distinct path is interned once:
  the store memoizes its id, its dense link-id list and its row of the
  link-row matrix, so a row carries only the path's id and a reroute
  rewrites one integer.  The store is the simulation's only path index:
  the TE planner interns its candidate paths here and costs them from the
  same link rows.
* Beside the columns the store keeps the fair-share filling's setup state
  live across ``add``/``remove``/``set_path``: per *path class* (the
  active flows on one interned path) its flow count and its member rows;
  per link its active flow count and the classes on it; and the links in
  use.  Each change interns its path first and only then moves the row
  between classes, so a path that raises leaves this state as it was.
* :meth:`FlowStore.recompute` runs one progressive filling
  (:class:`_Filling`) over that state: over classes with multiplicities,
  not over flows.

**Cost.**  With ``P`` active classes, ``I`` (class, link) incidences
among them and ``L`` links in use, upkeep is one walk of a path's links
per ``add``/``remove``/``set_path``, booked to its caller, and one
filling is O((L + I) log L) plus a rate gather over the ``n`` active
rows.
A filling copies the live per-link counts, walks each class's links once,
when the class freezes, and recomputes a share only for a link the round
touched.  Nothing in it walks the class lists to rebuild per-link state.
The bottleneck comes from a heap whose entries are lower bounds on link
shares: freezing a class at the smallest share never lowers another
link's share, so an entry is re-keyed only when it reaches the top, and
only a share that rounding lowered is pushed at once.  A class of ``m``
flows subtracts its share ``m`` times per link; from 16 on, numpy's
subtract reduction does the subtractions, in the same order.

**Exactness contract.**  The filling is *bit-identical* to the dict
reference :func:`~repro.simulator.fairshare.max_min_fair_rates`, not
merely close.  Capacities enter as the same numbers and every share is
the same ``remaining / count`` division.  Four steps carry the dict's
flow loop over to the classes unchanged:

1. Flows on the same path always freeze together: a bottleneck link
   freezes every flow on it, and same-path flows share every link.  So a
   path class with ``m`` flows stands for its flows, and it adds ``m`` to
   the count of each link it uses.
2. The dict picks the smallest share, ties to the link its rows reach
   first (its strict-``<`` scan runs in ``flows_on_link`` insertion
   order).  The filling takes the smallest share from the heap and, only
   when another link ties it, ranks the tied links by first encounter:
   the smallest ``(first-member row, position of the link in the path)``
   over the classes on the link.  A later member of a class reaches no
   link its first member did not, so the first member stands for the
   class.  The dict's order is fixed when the filling starts, so the key
   runs over every class on the link, frozen ones included.  Rows are in
   admission order and compaction keeps that order.
3. Order inside a round is free: every class frozen in a round subtracts
   the same share, so neither the order of the classes nor of their
   links changes a float.  Each link gets one subtraction per frozen
   flow (``m`` for a class of ``m``), as in the dict.
4. A link no round touched keeps its count and remaining capacity, so its
   share is the quotient the dict recomputes for it.

``tests/simulator/test_flowstate.py`` pins the equality against that
reference, through random workloads, through random store churn (with
the live counts recounted from the rows after every step) and through
churn that moves the first-encounter order of tied links.
``tests/simulator/test_fill_counts.py`` counts a filling's work.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..topology.routing import Path, path_links
from .fairshare import Link, UNCONSTRAINED_RATE

#: Flag bits of the :class:`FlowStore` ``flags`` column.
FLAG_ACTIVE = np.uint8(0x1)
FLAG_HAS_RULES = np.uint8(0x2)
FLAG_PENDING = np.uint8(0x4)


def _subtract(left: float, value: float, times: int) -> float:
    """``left`` minus ``value``, ``times`` times over, rounding after each
    subtraction as a loop does (numpy's subtract reduction runs in order)."""
    if times < 16:
        for _ in range(times):
            left -= value
        return left
    steps = np.full(times + 1, value)
    steps[0] = left
    return float(np.subtract.reduce(steps))


class _Filling:
    """One progressive filling over a :class:`FlowStore`'s live link state.

    Scratch per-link ``remaining``/``count`` lists start as copies of the
    store's capacities and live flow counts; ``share`` holds the current
    share of each link that still has unfrozen flows.  Each round takes
    the smallest share (:meth:`pick`), freezes the bottleneck's unfrozen
    classes, walking each class's links once, and recomputes the shares
    of the links that round touched (:meth:`reshare`).
    """

    def __init__(self, store: "FlowStore") -> None:
        self.store = store
        self.remaining: List[float] = store.link_capacity.tolist()
        self.count: List[int] = store._link_flows.copy()
        remaining, count = self.remaining, self.count
        self.share: Dict[int, float] = {
            link: remaining[link] / count[link] for link in store._live_links
        }
        # Every link in ``share`` has an entry here no larger than its
        # share (see pick).
        self.heap = [(value, link) for link, value in self.share.items()]
        heapify(self.heap)
        self.touched: Dict[int, None] = {}
        self.keys: Dict[int, Tuple[int, int]] = {}

    def rates(self) -> Dict[int, float]:
        """The rate of every class with links, keyed by path id."""
        store = self.store
        classes_on, links_of = store._link_classes, store._path_links
        class_size = store._class_size
        share, remaining, count = self.share, self.remaining, self.count
        rates: Dict[int, float] = {}
        while share:
            bottleneck = self.pick()
            value = share[bottleneck]
            rate = value if value > 0.0 else 0.0
            touched = self.touched = {}
            for path_id in classes_on[bottleneck]:
                if path_id in rates:
                    continue
                # Freeze the class: take its flows off each of its links,
                # subtracting the share once per flow.
                rates[path_id] = rate
                flows = class_size[path_id]
                for link in links_of[path_id]:
                    left = remaining[link] - value
                    if flows > 1:
                        left = _subtract(left, value, flows - 1)
                    remaining[link] = left
                    count[link] -= flows
                    touched[link] = None
            self.reshare()
        return rates

    def pick(self) -> int:
        """The link with the smallest share; a tie goes to the link the
        active rows reach first (:meth:`tie_key`).

        A link's share only grows as classes freeze, so an entry that is
        no larger than it stays a valid lower bound and is re-keyed only
        when it reaches the top; :meth:`reshare` pushes a share that
        rounding made smaller.  The top entry that equals its link's share
        is therefore a smallest share, and every link tied with it has an
        entry of that same value.
        """
        heap, share = self.heap, self.share
        tied: List[int] = []
        best = None
        while heap and (best is None or heap[0][0] == best):
            value, link = heappop(heap)
            current = share.get(link)
            if current == value:
                best = value
                if link not in tied:
                    tied.append(link)
            elif current is not None and current > value:
                heappush(heap, (current, link))
        if len(tied) == 1:
            return tied[0]
        keys = self.keys
        for other in tied:
            if other not in keys:
                keys[other] = self.tie_key(other)
        chosen = min(tied, key=keys.__getitem__)
        for other in tied:
            if other != chosen:
                heappush(heap, (best, other))
        return chosen

    def tie_key(self, link: int) -> Tuple[int, int]:
        """Where the active rows first reach ``link``: ``(row, position of
        the link in that row's path)``.  It runs over every class on the
        link, frozen ones included, as the rows are fixed for the filling."""
        store = self.store
        members, head = store._members, store._head
        first_row, path_id = min(
            (members[path_id][head[path_id]], path_id)
            for path_id in store._link_classes[link]
        )
        return first_row, store._path_links[path_id].index(link)

    def reshare(self) -> None:
        """Recompute the shares of the links this round touched; a link
        left with no unfrozen flows leaves the pick."""
        share, remaining, count = self.share, self.remaining, self.count
        heap = self.heap
        for link in self.touched:
            flows = count[link]
            if flows:
                value = remaining[link] / flows
                if value < share[link]:
                    heappush(heap, (value, link))
                share[link] = value
            else:
                del share[link]


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
        # dense link ids, also as a row of ``link_rows`` padded with
        # ``len(links)`` (one past the last link id).  Interning writes
        # one row; the matrix doubles its rows or widens only to make
        # room for it, and is never rebuilt.
        self._path_id: Dict[Path, int] = {}
        self._path_of: List[Path] = []
        self._path_links: List[List[int]] = []
        self.link_rows = np.full((64, 1), len(links), dtype=np.int64)
        # Live fill state, kept in step by add/remove/set_path: per path
        # id, its active flow count and its member rows (ascending from
        # ``_head``, which indexes the first member; entries before it,
        # and rows that have since left, are skipped); per link id, its
        # active flow count and the classes on it; and the links in use.
        self._class_size: List[int] = []
        self._members: List[List[int]] = []
        self._head: List[int] = []
        self._link_flows: List[int] = [0] * len(links)
        self._link_classes: List[Dict[int, None]] = [{} for _ in links]
        self._live_links: Dict[int, None] = {}
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
    def intern(self, path: Path) -> int:
        """The path's id, interning it (and its link ids) on first use.

        Raises:
            KeyError: when the path uses a link outside the topology.
            ValueError: when the path traverses a link twice.
        """
        path_id = self._path_id.get(path)
        if path_id is None:
            ids = []
            for link in path_links(path):
                link_id = self._link_id.get(link)
                if link_id is None:
                    raise KeyError(f"path {path!r} uses unknown link {link}")
                ids.append(link_id)
            if len(set(ids)) != len(ids):
                raise ValueError(f"path {path!r} traverses a link twice")
            path_id = len(self._path_of)
            if path_id == len(self.link_rows) or len(ids) > self.link_rows.shape[1]:
                self._extend_link_rows(len(ids))
            self.link_rows[path_id, : len(ids)] = ids
            self._path_id[path] = path_id
            self._path_of.append(path)
            self._path_links.append(ids)
            self._class_size.append(0)
            self._members.append([])
            self._head.append(0)
        return path_id

    def _extend_link_rows(self, width: int) -> None:
        """Make room in ``link_rows`` for the next path, of ``width`` links:
        double the rows when they are full, widen when it is wider."""
        rows, old_width = self.link_rows.shape
        if len(self._path_of) == rows:
            rows *= 2
        grown = np.full(
            (rows, max(width, old_width)), self.link_capacity.size, dtype=np.int64
        )
        grown[: len(self.link_rows), :old_width] = self.link_rows
        self.link_rows = grown

    def path_of(self, path_id: int) -> Path:
        """The interned path with id ``path_id``."""
        return self._path_of[path_id]

    def link_ids(self, path_id: int) -> List[int]:
        """The link ids of interned path ``path_id``, in path order."""
        return self._path_links[path_id]

    def _enter(self, row: int, path_id: int) -> None:
        """Count ``row`` into class ``path_id`` and the class's links."""
        size = self._class_size[path_id]
        self._class_size[path_id] = size + 1
        links = self._path_links[path_id]
        link_flows = self._link_flows
        for link in links:
            link_flows[link] += 1
        members = self._members[path_id]
        if not size:
            # The class appears on each of its links.
            link_classes, live = self._link_classes, self._live_links
            for link in links:
                classes = link_classes[link]
                if not classes:
                    live[link] = None
                classes[path_id] = None
            members.append(row)
        elif row > members[-1]:
            members.append(row)
        else:
            # An older row moved in by set_path; it may still be listed
            # from an earlier stay.
            at = bisect_left(members, row, self._head[path_id])
            if at == len(members) or members[at] != row:
                members.insert(at, row)

    def _leave(self, row: int, path_id: int) -> None:
        """Count ``row`` out of class ``path_id``, whose flag or path-id
        column no longer names it."""
        size = self._class_size[path_id] - 1
        self._class_size[path_id] = size
        links = self._path_links[path_id]
        link_flows = self._link_flows
        for link in links:
            link_flows[link] -= 1
        members = self._members[path_id]
        if not size:
            # The class leaves each of its links.
            link_classes, live = self._link_classes, self._live_links
            for link in links:
                classes = link_classes[link]
                del classes[path_id]
                if not classes:
                    del live[link]
            members.clear()
            self._head[path_id] = 0
            return
        head = self._head[path_id]
        if members[head] != row:
            return
        # The first member left: advance to the next row still in the class.
        head += 1
        while not (
            self.flags[members[head]] & FLAG_ACTIVE
            and self.path_id[members[head]] == path_id
        ):
            head += 1
        if head * 2 > len(members):
            del members[:head]
            head = 0
        self._head[path_id] = head

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
        path_id = self.intern(path)
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
        self.flags[row] = (
            FLAG_ACTIVE | FLAG_HAS_RULES if has_installed_rules else FLAG_ACTIVE
        )
        self.blackholed_since[row] = np.nan
        self.path_id[row] = path_id
        self._specs[row] = spec
        self._row_of[flow_id] = row
        self._active_rows_cache = None
        self._enter(row, path_id)
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
        self._leave(row, int(self.path_id[row]))

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
        # Rows were renumbered in order: relist each class's members.
        for members in self._members:
            members.clear()
        for row, path_id in enumerate(self.path_id[:n].tolist()):
            self._members[path_id].append(row)
        self._head = [0] * len(self._members)

    def set_path(self, flow_id: int, path: Path) -> None:
        """Repoint a flow at a new path.

        Raises:
            KeyError: for unknown/completed flows, or a path with an
                unknown link.
            ValueError: when the path traverses a link twice.
        """
        row = self._row_of[flow_id]
        path_id = self.intern(path)
        old = int(self.path_id[row])
        if path_id != old:
            self.path_id[row] = path_id
            self._leave(row, old)
            self._enter(row, path_id)

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
        rates = _Filling(self).rates()
        # Classes without links keep the sentinel rate.
        by_path = np.full(len(self._path_links), UNCONSTRAINED_RATE)
        by_path[list(rates)] = list(rates.values())
        self.rate[rows] = by_path[self.path_id[rows]]

    def utilization(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-link utilization as ``(link ids, utilizations)``: the entries
        of :func:`~repro.simulator.fairshare.link_utilization` over the
        active flows' links, with the same values in the same order.

        The order is first encounter: active rows in admission order, and
        within a row the links in path order.  The TE planner breaks ties
        among congested links by it.  A link that no active flow uses, or
        whose capacity is zero, is left out.
        """
        rows = self.active_rows()
        table = self.link_rows[self.path_id[rows]]
        # Row-major adds: each link sums its flows' rates in admission
        # order, as the dict reference does; padding lands in the extra slot.
        load = np.zeros(self.link_capacity.size + 1, dtype=np.float64)
        np.add.at(load, table.ravel(), np.repeat(self.rate[rows], table.shape[1]))
        links, first = np.unique(table, return_index=True)
        links = links[np.argsort(first)]
        links = links[links < self.link_capacity.size]
        links = links[self.link_capacity[links] > 0.0]
        return links, load[links] / self.link_capacity[links]

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
        hits = (self.link_rows[self.path_id[rows]] == link_id).any(axis=1)
        return [int(fid) for fid in self.flow_id[rows[hits]]]

    # ------------------------------------------------------------------
    # TE snapshot
    # ------------------------------------------------------------------
    def te_views(self) -> Tuple[List[int], List[int], List[float]]:
        """``(flow ids, path ids, rates)`` of the flows a TE epoch may move.

        In admission order; flows whose previous move is still pending
        activation are left out.  Plain lists, because the TE app reads
        every entry several times.
        """
        rows = self.active_rows()
        rows = rows[(self.flags[rows] & FLAG_PENDING) == 0]
        return (
            self.flow_id[rows].tolist(),
            self.path_id[rows].tolist(),
            self.rate[rows].tolist(),
        )
