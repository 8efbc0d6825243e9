"""The discrete-event scheduler: one priority queue, deterministic order.

Events dispatch in ``(time, tier, seq)`` order.  ``seq`` is a per-scheduler
monotone counter, so two events at the same instant and tier fire in the
order they were scheduled.  The ``tier`` field slots a class of events
*ahead* of same-time peers regardless of scheduling order: at a shared
instant flow completions (:data:`TIER_COMPLETION`) fire first, then flow
arrivals (:data:`TIER_ARRIVAL`), then everything else
(:data:`TIER_DEFAULT`).  The heap alone decides that order; no client loop
merges a second event source into it.

The scheduler is pure stdlib and knows nothing about what events mean;
clients dispatch on :attr:`Event.kind`.  Stale-event handling is the
client's job too (e.g. the simulator stamps completion events with a
rate-epoch and skips superseded ones on pop) — cancellation by mutation
would break the replay/parity guarantees.

The scheduler has no instrumentation seam.  Observers wrap ``schedule``
and ``pop`` from outside: the race sanitizer (:mod:`repro.analysis.races`)
on one scheduler instance, the wall-clock profiler (:mod:`repro.obs.perf`)
on the class for the length of a profile.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from .clock import Clock

#: Tier of engine-scheduled flow completions: sorts before same-time events.
TIER_COMPLETION = 0
#: Tier of flow arrivals: after same-time completions, before everything else.
TIER_ARRIVAL = 1
#: Tier of everything else (the default).
TIER_DEFAULT = 2


@dataclass(order=True, frozen=True)
class Event:
    """One scheduled occurrence.

    Ordering is ``(time, tier, seq)``; ``kind`` and ``payload`` never
    participate in comparisons (``seq`` is unique per scheduler, so ties
    cannot reach them).
    """

    time: float
    tier: int
    seq: int
    kind: str = field(compare=False)
    payload: object = field(compare=False, default=None)


class EventScheduler:
    """A deterministic priority-queue event scheduler over a :class:`Clock`.

    One scheduler owns one timeline: everything scheduled through it —
    simulator epochs, path activations, link failures, flow completions,
    replayed FlowMods — interleaves in a single total order, which is what
    lets multiple switches co-simulate without private clocks.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        """Create an empty scheduler (and a fresh clock unless one is shared)."""
        self.clock = clock if clock is not None else Clock()
        self._heap: List[Event] = []
        self._seq = itertools.count()

    def schedule(
        self,
        time: float,
        kind: str,
        payload: object = None,
        tier: int = TIER_DEFAULT,
    ) -> Event:
        """Enqueue an event; returns the (immutable) scheduled event.

        ``time`` may equal the current instant (the event fires next) but
        events cannot be scheduled in the past, nor at a NaN time (which
        would break heap order without an error).
        """
        if not time >= self.clock.now:
            raise ValueError(
                f"cannot schedule into the past: now={self.clock.now!r}, "
                f"asked {time!r}"
            )
        event = Event(
            time=time, tier=tier, seq=next(self._seq), kind=kind, payload=payload
        )
        heapq.heappush(self._heap, event)
        return event

    def peek(self) -> Optional[Event]:
        """The next event to dispatch, or None when empty (not removed)."""
        return self._heap[0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next event (does not advance the clock —
        callers advance explicitly so they can drain state up to the
        event's instant first)."""
        return heapq.heappop(self._heap)

    def next_time(self) -> float:
        """Timestamp of the next event, or ``inf`` when empty."""
        return self._heap[0].time if self._heap else math.inf

    def pending(self, kinds: Iterable[str]) -> bool:
        """True when any queued event has a kind in ``kinds``."""
        wanted = set(kinds)
        return any(event.kind in wanted for event in self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:
        return (
            f"EventScheduler(pending={len(self._heap)}, "
            f"now={self.clock.now:.6f})"
        )
