"""Columnar flow state: array-backed per-flow bookkeeping for million-flow runs.

The simulator keeps its per-flow state in columns, not one Python object
per flow:

* :class:`FlowStore` holds remaining-bytes / rate / flag / blackhole
  columns as numpy arrays, plus a flat link×flow incidence structure
  (per-row segments of dense link ids — a CSR whose ``indptr`` is the
  ``(_seg_start, _seg_len)`` pair) rebuilt incrementally on path churn
  and compacted when completed rows dominate.
* :func:`columnar_max_min_fair_rates` / :meth:`FlowStore.recompute` run
  progressive filling as array operations — gather the active incidence,
  rank links by first encounter, then repeatedly freeze the bottleneck
  link's flows with ``np.subtract.at``.

**Exactness contract.**  The columnar filling is *bit-identical* to the
dict reference :func:`~repro.simulator.fairshare.max_min_fair_rates`,
not merely close: capacities enter as the same doubles, per-iteration
shares are the same ``remaining / count`` divisions, bottleneck ties
break toward the first-encountered link exactly as the dict's
insertion-ordered strict ``<`` scan does, and every frozen flow
subtracts the *same* bottleneck share — so the accumulation order of the
subtractions (``np.subtract.at`` applies them sequentially) cannot
change any float.  ``tests/simulator/test_flowstate.py`` pins the
equality against that reference property-by-property.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from ..topology.routing import Path, path_links_cached
from .fairshare import Link, UNCONSTRAINED_RATE, max_min_fair_rates

#: Flag bits of the :class:`FlowStore` ``flags`` column.
FLAG_ACTIVE = np.uint8(0x1)
FLAG_HAS_RULES = np.uint8(0x2)
FLAG_PENDING = np.uint8(0x4)


def _progressive_fill(
    rank_pairs: np.ndarray,
    pair_pos: np.ndarray,
    n_rows: int,
    rem: np.ndarray,
    n_links: int,
    row_len: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized progressive filling over ranked incidence pairs.

    Args:
        rank_pairs: dense first-encounter link rank per incidence pair,
            flow-major in path order (the order the dict backend builds
            ``flows_on_link`` in).
        pair_pos: per pair, the position of its flow in the row ordering.
        n_rows: number of flows being filled.
        rem: remaining capacity per ranked link; mutated in place.
        n_links: number of ranked links.
        row_len: pairs per row position, when the caller already has it
            (saves a bincount over the pairs).

    Returns:
        float64 rates per row position (0.0 for rows never frozen, which
        cannot happen for rows with at least one link).

    Total work is O(pairs · log pairs + links²): one stable sort builds a
    link→pairs CSR, each link is scanned at most once when it bottlenecks,
    and each flow's pairs are subtracted exactly once when it freezes —
    no per-iteration pass over the surviving pair set.  The bit-exactness
    argument is order-free: every subtraction at a link removes the
    *same* ``bottleneck_share``, so any ordering of the dead pairs yields
    the identical float sequence the dict backend produces.
    """
    rates = np.zeros(n_rows, dtype=np.float64)
    counts = np.bincount(rank_pairs, minlength=n_links)
    share = np.empty(n_links, dtype=np.float64)
    alive = np.ones(n_rows, dtype=bool)
    # Flow CSR: pairs are flow-major, so row r's pairs are the slice
    # [row_start[r], row_start[r] + row_len[r]).
    if row_len is None:
        row_len = np.bincount(pair_pos, minlength=n_rows)
    row_start = np.concatenate(([0], np.cumsum(row_len[:-1])))
    # Link CSR: the stable sort keeps admission order within each link.
    by_link = np.argsort(rank_pairs, kind="stable")
    link_start = np.concatenate(([0], np.cumsum(counts)))
    link_rows = pair_pos[by_link]
    remaining_pairs = int(rank_pairs.size)
    while remaining_pairs:
        share.fill(np.inf)
        np.divide(rem, counts, out=share, where=counts > 0)
        # Ranks are first-encounter order, so argmin's lowest-index tie
        # win reproduces the dict backend's strict-< first-seen pick.
        bottleneck = int(np.argmin(share))
        if not counts[bottleneck]:
            break  # every remaining link is flowless
        bottleneck_share = float(share[bottleneck])
        candidates = link_rows[link_start[bottleneck] : link_start[bottleneck + 1]]
        frozen = candidates[alive[candidates]]
        alive[frozen] = False
        dead_links = rank_pairs[
            _gather_indices(row_start[frozen], row_len[frozen])
        ]
        # Sequential repeated subtraction of the *same* share — matching
        # the dict backend's per-flow `remaining[link] -= share` loop
        # bit-for-bit regardless of flow order.
        np.subtract.at(rem, dead_links, bottleneck_share)
        counts -= np.bincount(dead_links, minlength=n_links)
        rates[frozen] = bottleneck_share if bottleneck_share > 0.0 else 0.0
        remaining_pairs -= int(dead_links.size)
    return rates


def columnar_max_min_fair_rates(
    flow_paths: Mapping[Hashable, object],
    link_capacities: Mapping[Link, float],
) -> Dict[Hashable, float]:
    """Array-backed max-min fair rates, bit-identical to the dict backend.

    Same signature and contract as
    :func:`~repro.simulator.fairshare.max_min_fair_rates` (including the
    ``KeyError`` on unknown links and the sentinel rate for empty paths);
    paths that repeat a link — which :func:`~repro.topology.routing.
    path_links` never produces — fall back to the reference backend so
    the duplicate-subtraction semantics stay identical.

    Raises:
        KeyError: when a path uses a link with no declared capacity.
    """
    rates: Dict[Hashable, float] = {}
    flow_ids: List[Hashable] = []
    lens: List[int] = []
    pair_links: List[int] = []
    link_rank: Dict[Link, int] = {}
    caps: List[float] = []
    for flow_id, path in flow_paths.items():
        links = list(path)
        if not links:
            rates[flow_id] = UNCONSTRAINED_RATE
            continue
        if len(set(links)) != len(links):
            return max_min_fair_rates(flow_paths, link_capacities)
        flow_ids.append(flow_id)
        lens.append(len(links))
        for link in links:
            rank = link_rank.get(link)
            if rank is None:
                if link not in link_capacities:
                    raise KeyError(f"flow {flow_id!r} uses unknown link {link}")
                rank = link_rank[link] = len(caps)
                caps.append(link_capacities[link])
            pair_links.append(rank)
    if not flow_ids:
        return rates
    rank_pairs = np.asarray(pair_links, dtype=np.int64)
    pair_pos = np.repeat(
        np.arange(len(flow_ids), dtype=np.int64),
        np.asarray(lens, dtype=np.int64),
    )
    rem = np.asarray(caps, dtype=np.float64)
    filled = _progressive_fill(
        rank_pairs, pair_pos, len(flow_ids), rem, len(caps)
    )
    for pos, flow_id in enumerate(flow_ids):
        rates[flow_id] = float(filled[pos])
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
        self._path_arrays: Dict[Path, np.ndarray] = {}
        capacity = max(int(capacity), 16)
        self._cap = capacity
        self.flow_id = np.zeros(capacity, dtype=np.int64)
        self.remaining = np.zeros(capacity, dtype=np.float64)
        self.rate = np.zeros(capacity, dtype=np.float64)
        self.flags = np.zeros(capacity, dtype=np.uint8)
        self.blackholed_since = np.full(capacity, np.nan, dtype=np.float64)
        self._seg_start = np.zeros(capacity, dtype=np.int64)
        self._seg_len = np.zeros(capacity, dtype=np.int64)
        self._specs: List[Optional[object]] = [None] * capacity
        self._paths: List[Optional[Path]] = [None] * capacity
        self._seg_link = np.zeros(max(capacity * 4, 64), dtype=np.int32)
        self._seg_used = 0
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
    def _links_of(self, path: Path) -> np.ndarray:
        """Dense link-id array for a path (memoized per path).

        Raises:
            KeyError: when the path uses a link outside the topology.
        """
        array = self._path_arrays.get(path)
        if array is None:
            ids = []
            for link in path_links_cached(path):
                link_id = self._link_id.get(link)
                if link_id is None:
                    raise KeyError(f"path {path!r} uses unknown link {link}")
                ids.append(link_id)
            array = np.asarray(ids, dtype=np.int64)
            self._path_arrays[path] = array
        return array

    def _grow_rows(self) -> None:
        new_cap = self._cap * 2
        for name in ("flow_id", "remaining", "rate", "flags",
                     "blackholed_since", "_seg_start", "_seg_len"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            if name == "blackholed_since":
                grown.fill(np.nan)
            grown[: self._cap] = old
            setattr(self, name, grown)
        self._specs.extend([None] * (new_cap - self._cap))
        self._paths.extend([None] * (new_cap - self._cap))
        self._cap = new_cap

    def _write_segment(self, row: int, links: np.ndarray) -> None:
        need = int(links.size)
        while self._seg_used + need > self._seg_link.size:
            grown = np.zeros(self._seg_link.size * 2, dtype=np.int32)
            grown[: self._seg_used] = self._seg_link[: self._seg_used]
            self._seg_link = grown
        start = self._seg_used
        self._seg_link[start : start + need] = links
        self._seg_start[row] = start
        self._seg_len[row] = need
        self._seg_used = start + need

    def add(self, spec, path: Path, has_installed_rules: bool = False) -> int:
        """Admit a flow (remaining bytes = ``spec.size``); returns its row.

        Raises:
            ValueError: when the flow id is already active.
            KeyError: when the path uses an unknown link.
        """
        flow_id = spec.flow_id
        if flow_id in self._row_of:
            raise ValueError(f"flow {flow_id} is already active")
        links = self._links_of(path)
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
        self._write_segment(row, links)
        self._specs[row] = spec
        self._paths[row] = path
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
        self._paths[row] = None
        self._active_rows_cache = None

    def compact(self) -> None:
        """Stable compaction: drop retired rows, keep admission order.

        Stability is load-bearing — argmin tie-breaks resolve to the
        lowest row, which must keep meaning "earliest admitted".
        """
        rows = self.active_rows()
        n = int(rows.size)
        lens = self._seg_len[rows]
        gathered = self._seg_link[_gather_indices(self._seg_start[rows], lens)]
        for name in ("flow_id", "remaining", "rate", "flags",
                     "blackholed_since"):
            column = getattr(self, name)
            column[:n] = column[rows]
        self._specs[:n] = [self._specs[row] for row in rows.tolist()]
        self._paths[:n] = [self._paths[row] for row in rows.tolist()]
        self._specs[n : self.size] = [None] * (self.size - n)
        self._paths[n : self.size] = [None] * (self.size - n)
        self.flags[n : self.size] = np.uint8(0)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        self._seg_start[:n] = starts
        self._seg_len[:n] = lens
        self._seg_link[: gathered.size] = gathered
        self._seg_used = int(gathered.size)
        self.size = n
        self._row_of = {
            int(self.flow_id[row]): row for row in range(n)
        }
        self._active_rows_cache = None

    def set_path(self, flow_id: int, path: Path) -> None:
        """Repoint a flow's incidence segment at a new path.

        Shrinking paths rewrite in place; growing ones append a fresh
        segment (the old one is reclaimed by the next compaction).
        """
        row = self._row_of[flow_id]
        links = self._links_of(path)
        if links.size <= self._seg_len[row]:
            start = int(self._seg_start[row])
            self._seg_link[start : start + links.size] = links
            self._seg_len[row] = links.size
        else:
            self._write_segment(row, links)
        self._paths[row] = path

    # ------------------------------------------------------------------
    # Column accessors (by flow id)
    # ------------------------------------------------------------------
    def spec(self, flow_id: int):
        """The flow's :class:`~repro.traffic.flows.FlowSpec`."""
        return self._specs[self._row_of[flow_id]]

    def path(self, flow_id: int) -> Path:
        """The flow's current path."""
        return self._paths[self._row_of[flow_id]]

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

    def _gather_active(self):
        """(rows, lens, gathered link ids) of the active incidence."""
        rows = self.active_rows()
        lens = self._seg_len[rows]
        gathered = self._seg_link[_gather_indices(self._seg_start[rows], lens)]
        return rows, lens, gathered

    def recompute(self) -> None:
        """Recompute the rate column: vectorized max-min fair share.

        Bit-identical to running the dict backend over the same flows —
        see the module docstring's exactness contract.
        """
        rows = self.active_rows()
        if rows.size == 0:
            return
        lens = self._seg_len[rows]
        empty = lens == 0
        if empty.any():
            self.rate[rows[empty]] = UNCONSTRAINED_RATE
            rows = rows[~empty]
            lens = lens[~empty]
            if rows.size == 0:
                return
        gathered = self._seg_link[_gather_indices(self._seg_start[rows], lens)]
        used, rank_pairs = _first_encounter_rank(gathered)
        # int32 pair columns: link ranks and row positions are tiny, and
        # the fill's radix sort and gathers are memory-bound — narrowing
        # roughly halves their traffic.
        pair_pos = np.repeat(np.arange(rows.size, dtype=np.int32), lens)
        rem = self.link_capacity[used].copy()
        self.rate[rows] = _progressive_fill(
            rank_pairs,
            pair_pos,
            int(rows.size),
            rem,
            int(used.size),
            row_len=lens,
        )

    def utilization(self) -> Dict[Link, float]:
        """Per-link utilization, identical to
        :func:`~repro.simulator.fairshare.link_utilization` over the active
        flows' ``path_links_cached`` links: the same values, dict insertion
        order (so TE planning tie-breaks don't move) and key objects.

        Each key is the link tuple of the first active path that uses the
        link, so the TE planner's ``link in path_links_cached(path)`` tests
        and dict lookups succeed on identity, not tuple comparison.
        """
        rows, lens, gathered = self._gather_active()
        if gathered.size == 0:
            return {}
        weights = np.repeat(self.rate[rows], lens)
        load = np.zeros(self.link_capacity.size, dtype=np.float64)
        np.add.at(load, gathered, weights)
        first_key: Dict[int, Link] = {}
        for row in rows.tolist():
            for link in path_links_cached(self._paths[row]):
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
        if link_id is None:
            return []
        rows, lens, gathered = self._gather_active()
        if gathered.size == 0:
            return []
        hits = np.unique(np.repeat(rows, lens)[gathered == link_id])
        return [int(fid) for fid in self.flow_id[hits]]

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
        flows: Dict[int, object] = {}
        eligible: Dict[int, Path] = {}
        for flow_id, row, is_pending in zip(flow_ids, rows.tolist(), pending):
            flows[flow_id] = self._specs[row]
            if not is_pending:
                eligible[flow_id] = self._paths[row]
        return flows, eligible, rates


def _gather_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of per-row segments ``[starts[k], starts[k]+lens[k])``,
    concatenated in row order (the CSR row-gather trick)."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    return np.repeat(starts - offsets, lens) + np.arange(total, dtype=np.int64)


def _first_encounter_rank(gathered: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rank links by first encounter in the gathered pair stream.

    Returns ``(used, ranks)``: the raw link ids in first-encounter order,
    and each pair's dense rank — the order the dict backend's
    ``flows_on_link`` insertion gives, which is what bottleneck ties
    break on.

    Sort-free over the pairs: fancy assignment with duplicate indices
    writes in index-array order (last wins), so scattering reversed
    positions through the reversed stream leaves each link id holding its
    *first* forward position — two O(pairs) passes plus an argsort over
    the handful of used links.
    """
    if not gathered.size:
        return gathered[:0], np.empty(0, dtype=np.int64)
    universe = int(gathered.max()) + 1
    present = np.zeros(universe, dtype=bool)
    present[gathered] = True
    first_index = np.empty(universe, dtype=np.int64)
    first_index[gathered[::-1]] = np.arange(
        gathered.size - 1, -1, -1, dtype=np.int64
    )
    ids = np.flatnonzero(present)
    used = ids[np.argsort(first_index[ids], kind="stable")]
    rank_of = np.empty(universe, dtype=np.int32)
    rank_of[used] = np.arange(used.size, dtype=np.int32)
    return used, rank_of[gathered]
