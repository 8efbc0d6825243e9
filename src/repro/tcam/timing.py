"""Empirical TCAM control-action timing models.

The paper's simulator drives all control-plane latencies from empirical switch
measurements (Kuźniar et al. [42], He et al. [38], Lazaris et al. [43]):

* insertion latency grows with flow-table occupancy (Table 1 of the paper);
* inserts carrying priorities (i.e. requiring entry shifting) are about 5x
  slower than priority-free appends;
* inserting in descending priority order is up to 10x slower than ascending;
* deletions are fast and priority-independent;
* modifications are ~constant unless they change the priority.

:class:`EmpiricalTimingModel` encodes exactly this: a piecewise-linear
interpolation of published (occupancy -> latency) points, multiplicative
priority/order penalties, and seeded lognormal noise for run-to-run variation.
Scalar reads of the curve index a per-occupancy table built once from the
array formula, so the two paths agree bit for bit.
The *worst-case* latency at a given occupancy is deterministic and is what
Hermes's shadow sizing (Fig 14) is computed from.
"""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np


class InsertOrder(enum.Enum):
    """The priority ordering of an insertion batch, which scales latency.

    Measurements show ascending-priority insertion can be ~10x faster than
    descending.  We treat the empirical occupancy curve as the random-order
    baseline and scale around it.
    """

    ASCENDING = 0.5
    RANDOM = 1.0
    DESCENDING = 5.0


@dataclass
class EmpiricalTimingModel:
    """Occupancy-driven latency model for TCAM control actions.

    Attributes:
        name: human-readable switch name.
        capacity: number of TCAM entries the table holds.
        occupancy_latency_points: published (occupancy, seconds-per-update)
            samples; latency is interpolated piecewise-linearly between them
            and extrapolated with the final segment's slope.
        priority_penalty: slowdown for inserts that shift entries, relative
            to a priority-free append (paper: ~5x).
        delete_latency: constant rule-deletion latency in seconds.
        modify_latency: constant rule-modification latency (no priority
            change) in seconds.
        noise_sigma: sigma of the multiplicative lognormal latency noise.
    """

    name: str
    capacity: int
    occupancy_latency_points: Sequence[Tuple[int, float]]
    priority_penalty: float = 5.0
    delete_latency: float = 1e-4
    modify_latency: float = 2e-4
    noise_sigma: float = 0.20
    # Derived from ``occupancy_latency_points``, so left out of ``==``
    # (numpy arrays have no truth value).
    _occupancies: np.ndarray = field(init=False, repr=False, compare=False)
    _latencies: np.ndarray = field(init=False, repr=False, compare=False)
    # The curve at every integer occupancy 0..capacity, built from the
    # array path on the first scalar call (see :meth:`_table`).
    _curve: Optional[array] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.occupancy_latency_points:
            raise ValueError("timing model needs at least one (occupancy, latency) point")
        points = sorted(self.occupancy_latency_points)
        occupancies = [occ for occ, _ in points]
        latencies = [lat for _, lat in points]
        if occupancies[0] > 0:
            # Anchor the curve at zero occupancy: an insert into an empty
            # table still costs something (bus + firmware overhead); half the
            # first measured latency is a conservative floor.
            occupancies.insert(0, 0)
            latencies.insert(0, latencies[0] / 2.0)
        if len(occupancies) < 2:
            # A lone point at zero leaves the last segment's slope undefined.
            raise ValueError(f"{self.name}: needs a point above occupancy 0")
        self._occupancies = np.asarray(occupancies, dtype=float)
        self._latencies = np.asarray(latencies, dtype=float)
        if np.any(np.diff(self._latencies) < 0):
            raise ValueError(f"{self.name}: latency must be non-decreasing in occupancy")

    # ------------------------------------------------------------------
    # Core curve
    # ------------------------------------------------------------------
    def base_insertion_latency(self, occupancy: int) -> float:
        """Deterministic insertion latency (seconds) at the given occupancy.

        This is the priority-shifting insert cost: the published occupancy
        curves were measured with rule sets that force entry movement.  It
        reads the per-occupancy table, so it equals
        :meth:`base_insertion_latencies` at ``occupancy`` bit for bit.
        """
        if occupancy < 0:
            raise ValueError("occupancy cannot be negative")
        return self._table()[min(occupancy, self.capacity)]

    def base_insertion_latencies(self, occupancies: np.ndarray) -> np.ndarray:
        """The occupancy curve at each of ``occupancies``: the one formula.

        Piecewise-linear ``np.interp`` between the points, and the last
        segment extended past the last point; occupancies above capacity
        read the curve at capacity.
        """
        if np.any(occupancies < 0):
            raise ValueError("occupancy cannot be negative")
        occ = np.minimum(occupancies, self.capacity).astype(float)
        x0, x1 = self._occupancies[-2], self._occupancies[-1]
        y0, y1 = self._latencies[-2], self._latencies[-1]
        slope = (y1 - y0) / (x1 - x0)
        return np.where(
            occ >= x1,
            y1 + slope * (occ - x1),
            np.interp(occ, self._occupancies, self._latencies),
        )

    def _table(self) -> array:
        """The curve at occupancies 0..capacity, built once on first use.

        The bulk prefill goes through the array path and builds no table.
        """
        curve = self._curve
        if curve is None:
            curve = self._curve = array("d")
            curve.frombytes(
                self.base_insertion_latencies(np.arange(self.capacity + 1)).tobytes()
            )
        return curve

    def insertion_latency(
        self,
        occupancy: int,
        *,
        shifts: Optional[int] = None,
        order: InsertOrder = InsertOrder.RANDOM,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Sample the latency (seconds) of one insertion.

        Args:
            occupancy: entries already in the table.
            shifts: how many resident entries the insert displaces; ``0``
                means an append (no shifting), which is ~priority_penalty
                times cheaper.  ``None`` assumes worst-position insertion.
            order: the priority ordering of the surrounding batch.
            rng: optional generator for multiplicative lognormal noise; when
                omitted the deterministic mean latency is returned.
        """
        latency = self.base_insertion_latency(occupancy)
        if shifts == 0:
            latency /= self.priority_penalty
        elif shifts is not None and occupancy > 0:
            # Scale with the fraction of the table actually shifted, but
            # never below the priority-free floor.
            fraction = min(1.0, shifts / occupancy)
            floor = latency / self.priority_penalty
            latency = floor + (latency - floor) * fraction
        latency *= order.value
        if rng is not None and self.noise_sigma > 0:
            latency *= float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))
        return latency

    def insertion_latencies(
        self,
        occupancies: np.ndarray,
        shifts: np.ndarray,
        order: InsertOrder = InsertOrder.RANDOM,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample a run of insertions, one array call for as many scalar ones.

        Element ``i`` equals ``insertion_latency(occupancies[i],
        shifts=shifts[i], order=order, rng=rng)`` from the ``i``-th of
        those calls, bit for bit, and ``rng`` ends in the same state: one
        ``lognormal(size=n)`` draws the same values as n scalar draws.  An
        insert never shifts more entries than are resident, so
        ``shifts[i] <= occupancies[i]``.
        """
        latency = self.base_insertion_latencies(occupancies)
        floor = latency / self.priority_penalty
        fraction = np.minimum(1.0, shifts / np.maximum(occupancies, 1))
        latency = np.where(shifts == 0, floor, floor + (latency - floor) * fraction)
        latency *= order.value
        if rng is not None and self.noise_sigma > 0:
            latency *= rng.lognormal(
                mean=0.0, sigma=self.noise_sigma, size=len(latency)
            )
        return latency

    def worst_case_insertion_latency(self, occupancy: int) -> float:
        """Deterministic upper bound on insertion latency at ``occupancy``.

        Hermes sizes the shadow table from this bound (Fig 14): the bound
        assumes a full-table shift with a priority-carrying rule, i.e. the
        raw empirical curve.
        """
        return self.base_insertion_latency(occupancy)

    def max_occupancy_for_guarantee(self, guarantee: float) -> int:
        """Largest occupancy whose worst-case insert latency fits ``guarantee``.

        Args:
            guarantee: latency budget in seconds.

        Returns:
            The maximal occupancy (possibly 0 when even an empty-table insert
            exceeds the budget) capped at table capacity.
        """
        # The curve never decreases (``__post_init__`` rejects falling
        # points, and the last segment's slope is >= 0), so one bisection
        # finds the last occupancy whose latency fits.
        return max(0, bisect_right(self._table(), guarantee) - 1)

    # ------------------------------------------------------------------
    # Other control actions
    # ------------------------------------------------------------------
    def deletion_latency(self, rng: Optional[np.random.Generator] = None) -> float:
        """Sample the latency (seconds) of one rule deletion."""
        return self._constant_with_noise(self.delete_latency, rng)

    def modification_latency(self, rng: Optional[np.random.Generator] = None) -> float:
        """Sample the latency (seconds) of one non-priority rule modification."""
        return self._constant_with_noise(self.modify_latency, rng)

    def update_rate(self, occupancy: int) -> float:
        """Sustained updates/second at the given occupancy (Table 1's metric)."""
        return 1.0 / self.base_insertion_latency(occupancy)

    def _constant_with_noise(
        self, latency: float, rng: Optional[np.random.Generator]
    ) -> float:
        if rng is not None and self.noise_sigma > 0:
            return latency * float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))
        return latency


@dataclass
class IdealTimingModel(EmpiricalTimingModel):
    """A zero-latency switch, the paper's no-control-latency baseline."""

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(
            name="Ideal",
            capacity=capacity,
            occupancy_latency_points=[(0, 0.0), (capacity, 0.0)],
            priority_penalty=1.0,
            delete_latency=0.0,
            modify_latency=0.0,
            noise_sigma=0.0,
        )

    def update_rate(self, occupancy: int) -> float:  # noqa: D102
        return math.inf
