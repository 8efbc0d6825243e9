"""Host time corrected for the shared machine's changing speed.

The benchmark host is a small VM on a shared machine: its CPU throughput
swings by up to 1.7x over seconds to minutes as neighbours come and go,
and CPU time swings with wall time, so neither alone is a steady measure
of the program.  While a timed call runs, a SIGALRM handler interrupts it
every ``INTERVAL_S`` to time one fixed slice of interpreter work, the
reference kernel.  The median kernel time inside the call is the call's
*pace*.  A call's calibrated time is its own wall time (minus the kernel
bursts) scaled by ``NOMINAL_PACE_S / pace``: the call's cost in kernel
times, expressed in seconds of a machine that runs the kernel in exactly
``NOMINAL_PACE_S``.  Contention slows the program and the kernel alike,
so the ratio holds while wall time swings.

The handler touches nothing the program reads, so simulated results are
unchanged (the benchmark checks this against a traced round, which runs
without the sampler).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple

INTERVAL_S = 5e-3
# About the kernel's time on an idle core of the 2.1 GHz Xeon x86_64 VM
# the benchmark was built on, so calibrated seconds read close to that
# machine's uncontended wall seconds.  A fixed unit: never re-tune it, or
# results before and after stop being comparable.
NOMINAL_PACE_S = 30e-6


def reference_kernel() -> float:
    """A fixed slice of interpreter work: small-dict stores and lookups
    and float arithmetic, the same on every call (about 30 us)."""
    table = {}
    acc = 0.0
    for i in range(200):
        table[i & 63] = i
        acc += table.get((i * 7) & 63, 0) * 0.5
    return acc


class PaceSampler:
    """Times calls with the reference kernel sampled alongside them.

    Use as a context manager: it installs the SIGALRM handler on entry and
    restores the previous one on exit; the timer runs only inside
    :meth:`measure`.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.bursts: List[float] = []
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.bursts.append(time.perf_counter() - start)

    def __enter__(self) -> "PaceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, function: Callable, *args) -> Tuple[object, float, Optional[float]]:
        """Run ``function(*args)``; return its result, its wall time minus
        the kernel bursts, and its pace (None when no burst fell inside)."""
        first = len(self.bursts)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            result = function(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
            bursts = self.bursts[first:]
        pace = statistics.median(bursts) if bursts else None
        return result, wall - sum(bursts), pace


def plain_measure(function: Callable, *args) -> Tuple[object, float, None]:
    """:meth:`PaceSampler.measure` without the sampler, for traced rounds."""
    start = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - start, None


def calibrated(seconds: float, pace: Optional[float]) -> float:
    """``seconds`` at the nominal pace; unscaled without a pace."""
    return seconds if pace is None else seconds * NOMINAL_PACE_S / pace
