"""The discrete-event scheduler: one priority queue, deterministic order.

Events dispatch in ``(time, tier, seq)`` order.  ``seq`` is a per-scheduler
monotone counter, so two events at the same instant fire in the order they
were scheduled — exactly the tie-break the simulator's private heap used
(its entries were ``(time, seq, ...)``).  The ``tier`` field slots a class
of events *ahead* of same-time peers regardless of scheduling order:
flow-completion events use :data:`TIER_COMPLETION` so the event-driven
completion path preserves the legacy dispatch order
(completion → arrival → other events) at shared timestamps.

The scheduler is pure stdlib and knows nothing about what events mean;
clients dispatch on :attr:`Event.kind`.  Stale-event handling is the
client's job too (e.g. the simulator stamps completion events with a
rate-epoch and skips superseded ones on pop) — cancellation by mutation
would break the replay/parity guarantees.

A schedule-order race sanitizer (:mod:`repro.analysis.races`) can attach
via :meth:`EventScheduler.attach_sanitizer`: it is then told about every
``schedule()`` (to capture the scheduling call site) and every ``pop()``
(to attribute subsequent state accesses to the dispatched event).
Detached — the default — the hook is a single ``is None`` test, and runs
are byte-identical to a scheduler without the seam.  Wall-clock timing
(:mod:`repro.obs.perf`) needs no seam: for the length of a profile it
wraps ``schedule`` and ``pop`` from outside, as the ``kernel`` layer.
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
#: Tier of everything else (the default).
TIER_DEFAULT = 1


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
        self._sanitizer = None

    @property
    def sanitizer(self):
        """The attached race sanitizer, or None (the default: no recording)."""
        return self._sanitizer

    def attach_sanitizer(self, sanitizer) -> None:
        """Attach a race sanitizer (``None`` detaches).

        The sanitizer must expose ``on_schedule(event)`` and
        ``on_dispatch(event)``; see
        :class:`repro.analysis.races.RaceSanitizer`.
        """
        self._sanitizer = sanitizer

    def schedule(
        self,
        time: float,
        kind: str,
        payload: object = None,
        tier: int = TIER_DEFAULT,
    ) -> Event:
        """Enqueue an event; returns the (immutable) scheduled event.

        ``time`` may equal the current instant (the event fires next) but
        events cannot be scheduled in the past.
        """
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule into the past: now={self.clock.now!r}, "
                f"asked {time!r}"
            )
        event = Event(
            time=time, tier=tier, seq=next(self._seq), kind=kind, payload=payload
        )
        heapq.heappush(self._heap, event)
        if self._sanitizer is not None:
            self._sanitizer.on_schedule(event)
        return event

    def peek(self) -> Optional[Event]:
        """The next event to dispatch, or None when empty (not removed)."""
        return self._heap[0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next event (does not advance the clock —
        callers advance explicitly so they can drain state up to the
        event's instant first)."""
        event = heapq.heappop(self._heap)
        if self._sanitizer is not None:
            self._sanitizer.on_dispatch(event)
        return event

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
