"""Simulated time: the monotonic clock and serially-occupied resources.

Every layer of the reproduction used to keep private time state — the
simulator's ``self.now``, each switch agent's ``busy_until`` cursor, the
channel's per-message retry clock.  This module is the one place mutable
time lives now: a :class:`Clock` is the timeline (shared by everything
co-simulating in it), and a :class:`SerialResource` is the busy-horizon of
anything that executes one thing at a time (a switch CPU, a TCAM write
port).  The determinism lint's ``adhoc-event-loop`` rule keeps it that way:
an assignment to a ``now`` / ``_now`` / ``busy_until`` / ``_busy_until``
attribute outside ``repro.engine`` is a finding.
"""

from __future__ import annotations


class Clock:
    """A monotonic simulated clock.

    The clock only moves forward, and only via :meth:`advance_to` — the
    scheduler (or a driving loop) advances it to each event's timestamp
    before dispatching.  Components never mutate time themselves; they read
    :attr:`now` and derive deadlines from it.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        """Start the timeline at ``start`` simulated seconds."""
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    def advance_to(self, time: float) -> float:
        """Move the clock forward to ``time``; returns the new now.

        Raises ``ValueError`` on any attempt to move backwards, or to a NaN
        time — a scheduling bug that would silently corrupt every derived
        timeline.
        """
        if not time >= self._now:
            raise ValueError(
                f"clock cannot run backwards: now={self._now!r}, asked {time!r}"
            )
        self._now = time
        return self._now

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.6f})"


class SerialResource:
    """A resource that serves one occupant at a time on a shared timeline.

    Models the switch-CPU semantics the agent used to keep in an ad-hoc
    ``busy_until`` float: work submitted at time *t* starts at
    ``max(t, free_at)`` and holds the resource until its finish time.
    Occupancy never moves backwards, so timings derived from it are
    monotone per resource even when submissions arrive out of order.
    """

    __slots__ = ("_free_at",)

    def __init__(self, free_at: float = 0.0) -> None:
        """Create the resource, free from ``free_at`` onwards."""
        self._free_at = float(free_at)

    @property
    def free_at(self) -> float:
        """Earliest time the resource can start new work."""
        return self._free_at

    def start_time(self, at_time: float) -> float:
        """When work submitted at ``at_time`` would begin (no state change)."""
        return max(at_time, self._free_at)

    def occupy_until(self, time: float) -> None:
        """Extend the busy horizon to ``time`` (never backwards)."""
        if time > self._free_at:
            self._free_at = time

    def stall(self, at_time: float, duration: float) -> None:
        """Inject a pause: the horizon becomes ``max(free_at, at_time) +
        duration`` — the fault injector's CPU-stall semantics."""
        self._free_at = max(self._free_at, at_time) + duration

    def __repr__(self) -> str:
        return f"SerialResource(free_at={self._free_at:.6f})"
