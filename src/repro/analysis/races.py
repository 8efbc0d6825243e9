"""SimRace: the schedule-order race detector for the discrete-event kernel.

Every guarantee the reproduction makes — parity digests, golden traces,
verifier witness keys — rests on event order being fully determined.  The
kernel dispatches in ``(time, tier, seq)`` order, and ``seq`` is nothing
but insertion order: two events at the same ``(time, tier)`` fire in the
order they happened to be scheduled.  That tie-break is deterministic, but
it is *arbitrary* — nothing about the model says which order is right.  A
**schedule-order race** is a pair of same-``(time, tier)`` events whose
accesses to shared simulation state conflict: their combined outcome can
depend on the ``seq`` tie-break, which means it silently depends on the
order of unrelated ``schedule()`` calls, and a refactor that reorders
those calls changes results without failing any invariant.

This module is the detector: a sanitizer that reports the races a run
actually exercises, each with a witness pair.  It is opt-in
instrumentation over a live run:

* :meth:`RaceSanitizer.watch_scheduler` wraps one
  :class:`~repro.engine.scheduler.EventScheduler` instance's ``schedule``
  and ``pop`` (the kernel has no seam for it).  Every ``schedule()``
  records the scheduling call site (the witness, and the anchor for
  ``# race: allow(...)`` pragma suppressions); every ``pop()`` starts a
  new *footprint* — all shared-state accesses until the next pop belong
  to the popped event.
* Taps record the accesses: :class:`~repro.tcam.table.TcamTable`
  mutations arrive through the existing ``add_listener`` seam, a table's
  latency-noise draws through a delegating generator proxy, and agent /
  channel / installer state through lightweight method wrappers
  (:meth:`~RaceSanitizer.watch_agent`, :meth:`~RaceSanitizer.watch_channel`,
  :meth:`~RaceSanitizer.watch_installer`).  Clock advances are derived
  from dispatch times: the event that first moves the run to a new
  instant records the ``clock`` write, so same-instant peers never
  conflict on time itself.
* Happens-before is ``(time, tier)`` order.  Accesses by events at
  different times or tiers are ordered by the model; accesses by events
  at the *same* ``(time, tier)`` are ordered only by ``seq``, so a
  write/write or write/read pair on one state key there is reported as a
  race, with both events' kinds, the key, and both scheduling call sites.

A run with no sanitizer attached runs the kernel untouched; a run *with*
the sanitizer must produce identical metrics — the wrappers and taps are
pure observers — which ``tests/analysis/test_races.py`` pins
cross-process.

Every dispatch is a kernel event, flow arrivals included, so every
access belongs to a popped event's footprint.  Same-instant arrivals
share a ``(time, tier)`` bucket; their schedule site carries a justified
pragma, because their order is the workload's stable start-time order.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engine.scheduler import Event
from ..obs.tracer import get_tracer
from .pragmas import RACE, file_pragmas

#: The rule name ``# race: allow(...)`` pragmas suppress.
SCHEDULE_ORDER_RACE = "schedule-order-race"

#: Frames whose files live under these path fragments are kernel/detector
#: plumbing, not scheduling call sites.
_PLUMBING_FRAGMENTS = ("repro/engine/", "repro/analysis/races")


@dataclass(frozen=True)
class RaceWitness:
    """One side of a race: an event plus where it was scheduled from.

    Attributes:
        kind: the event's :attr:`~repro.engine.scheduler.Event.kind`.
        seq: the scheduler's insertion-order tie-break value.
        access: ``"write"`` or ``"read"`` — this event's access to the key.
        site: ``path:line`` of the ``schedule()`` call that created the
            event, or ``""`` when the frame could not be resolved.
        detail: what the access was (e.g. ``install #42``), best effort.
    """

    kind: str
    seq: int
    access: str
    site: str = ""
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        site = self.site or "<unknown site>"
        return f"'{self.kind}' seq={self.seq} [{self.access}]{suffix} scheduled at {site}"


@dataclass(frozen=True)
class RaceReport:
    """One schedule-order race: two same-``(time, tier)`` events whose
    accesses to ``key`` conflict, so their combined outcome is decided
    only by the scheduler's insertion-order tie-break."""

    time: float
    tier: int
    key: str
    first: RaceWitness
    second: RaceWitness

    def __str__(self) -> str:
        return (
            f"schedule-order race at t={self.time:.6f} tier={self.tier} "
            f"on {self.key!r}:\n"
            f"    {self.first}\n"
            f"    {self.second}\n"
            f"    order between them is decided only by scheduling order (seq)"
        )


@dataclass
class _Footprint:
    """The shared-state accesses attributed to one dispatched event."""

    event: Event
    site: str = ""
    allowed: frozenset = frozenset()
    reads: Dict[str, str] = field(default_factory=dict)
    writes: Dict[str, str] = field(default_factory=dict)


class _TableTap:
    """A :meth:`TcamTable.add_listener` observer recording mutations."""

    def __init__(self, sanitizer: "RaceSanitizer", key: str) -> None:
        self._sanitizer = sanitizer
        self._key = key

    def rule_installed(self, rule) -> None:
        self._sanitizer.record_write(self._key, f"install #{rule.rule_id}")

    def rule_removed(self, rule) -> None:
        self._sanitizer.record_write(self._key, f"remove #{rule.rule_id}")

    def rule_modified(self, old, new) -> None:
        self._sanitizer.record_write(self._key, f"modify #{new.rule_id}")


class _RngTap:
    """A delegating proxy over an ``np.random.Generator``.

    Every method call records a write on the stream's key (a draw mutates
    the generator state) and then delegates, so the values produced are
    identical to the unwrapped generator's.
    """

    def __init__(self, sanitizer: "RaceSanitizer", key: str, generator) -> None:
        self._sanitizer = sanitizer
        self._key = key
        self._generator = generator

    def __getattr__(self, name: str):
        attribute = getattr(self._generator, name)
        if not callable(attribute):
            return attribute
        sanitizer, key = self._sanitizer, self._key

        def recording(*args, **kwargs):
            sanitizer.record_write(key, f"draw:{name}")
            return attribute(*args, **kwargs)

        return recording

    def __repr__(self) -> str:
        return f"_RngTap({self._key!r}, {self._generator!r})"


class RaceSanitizer:
    """Records per-event shared-state footprints and reports races.

    One sanitizer watches one timeline (one scheduler plus the components
    co-simulating on it).  Attach it before the run starts, run, then read
    :meth:`finish` (or :attr:`races` after it):

        sanitizer = RaceSanitizer()
        sanitizer.watch_simulation(simulation)
        simulation.run()
        for race in sanitizer.finish():
            print(race)

    Races whose scheduling call site carries a justified
    ``# race: allow(schedule-order-race) -- why`` pragma (or names the
    state key) land in :attr:`suppressed` instead of :attr:`races`.
    """

    def __init__(self, tracer=None) -> None:
        """Create an idle sanitizer (nothing watched yet).

        Args:
            tracer: optional explicit :class:`~repro.obs.tracer.Tracer`
                race events are emitted to; None follows the process
                global (a no-op unless one is installed).
        """
        self.races: List[RaceReport] = []
        self.suppressed: List[RaceReport] = []
        self.events_seen = 0
        self._tracer = tracer
        self._sites: Dict[Event, Tuple[str, frozenset]] = {}
        self._current: Optional[_Footprint] = None
        self._instant: List[_Footprint] = []
        self._instant_time: Optional[float] = None

    @property
    def tracer(self):
        """The injected tracer, or the process-global one."""
        return self._tracer if self._tracer is not None else get_tracer()

    # ------------------------------------------------------------------
    # Scheduler hooks (called by the wrapped schedule/pop)
    # ------------------------------------------------------------------
    def on_schedule(self, event: Event) -> None:
        """Record the scheduling call site (and its pragmas) for ``event``."""
        site, allowed = self._calling_site()
        self._sites[event] = (site, allowed)

    def on_dispatch(self, event: Event) -> None:
        """Start attributing accesses to ``event`` (closes the previous
        footprint; flushes and analyzes the instant when time moves)."""
        self._close_current()
        opened_instant = False
        if self._instant_time is None or event.time > self._instant_time:
            self._flush_instant()
            self._instant_time = event.time
            opened_instant = True
        self.events_seen += 1
        site, allowed = self._sites.pop(event, ("", frozenset()))
        self._current = _Footprint(event=event, site=site, allowed=allowed)
        if opened_instant:
            # The clock advance belongs to the event that moved the run to
            # this instant; same-instant peers never conflict on time.
            self.record_write("clock", f"advance to {event.time:.6f}")

    # ------------------------------------------------------------------
    # Access recording (called by the taps)
    # ------------------------------------------------------------------
    def record_read(self, key: str, detail: str = "") -> None:
        """Record a read of shared state ``key`` by the current footprint."""
        if self._current is not None and key not in self._current.reads:
            self._current.reads[key] = detail

    def record_write(self, key: str, detail: str = "") -> None:
        """Record a write of shared state ``key`` by the current footprint."""
        if self._current is not None and key not in self._current.writes:
            self._current.writes[key] = detail

    # ------------------------------------------------------------------
    # Instrumentation installers
    # ------------------------------------------------------------------
    def watch_scheduler(self, scheduler) -> None:
        """Wrap ``scheduler``'s ``schedule`` and ``pop`` (this instance
        only): each scheduled event records its call site, each popped
        one opens a footprint."""
        original_schedule, original_pop = scheduler.schedule, scheduler.pop
        sanitizer = self

        def recording_schedule(*args, **kwargs):
            event = original_schedule(*args, **kwargs)
            sanitizer.on_schedule(event)
            return event

        def recording_pop():
            event = original_pop()
            sanitizer.on_dispatch(event)
            return event

        scheduler.schedule = recording_schedule
        scheduler.pop = recording_pop

    def watch_table(self, table, key: str) -> None:
        """Record ``table`` mutations (listener seam) and lookups as ``key``.

        Works on a :class:`~repro.tcam.table.TcamTable` or a
        :class:`~repro.faults.table.FaultyTable` wrapper — a silently
        failed write emits no listener event, matching what is physically
        resident.  A latency-noise generator on the table is wrapped too,
        so occupancy-dependent draws count as accesses to the table's RNG.
        """
        table.add_listener(_TableTap(self, key))
        original_lookup = table.lookup
        sanitizer = self

        def recording_lookup(lookup_key):
            sanitizer.record_read(key)
            return original_lookup(lookup_key)

        table.lookup = recording_lookup
        rng = getattr(table, "rng", None)
        if rng is not None and not isinstance(rng, _RngTap):
            table.rng = _RngTap(self, f"{key}:rng", rng)

    def watch_agent(self, agent) -> None:
        """Record FlowMod submissions to ``agent`` as writes (CPU horizon,
        history, and dedup cache all mutate) under ``agent:<name>``.

        Every submission runs through ``submit_batch`` (``submit`` is a
        batch of one), so wrapping it catches both."""
        key = f"agent:{agent.name}"
        self._wrap_writes(agent, key, ("submit_batch",))

    def watch_channel(self, channel, key: str) -> None:
        """Record sends through ``channel`` as writes under ``key``
        (``send`` is a batch of one through ``send_batch``)."""
        self._wrap_writes(channel, key, ("send_batch",))

    def watch_installer(self, installer, key: str) -> None:
        """Record installer activity under ``key``.

        ``apply`` / ``apply_batch`` / ``advance_time`` are writes,
        ``lookup`` a read; any physical tables the installer exposes as
        ``shadow`` / ``main`` / ``table`` attributes are watched through
        the listener seam as ``<key>:<table>``.
        """
        self._wrap_writes(
            installer, key, ("apply", "apply_batch", "advance_time")
        )
        original_lookup = installer.lookup
        sanitizer = self

        def recording_lookup(lookup_key):
            sanitizer.record_read(key)
            return original_lookup(lookup_key)

        installer.lookup = recording_lookup
        for attribute in ("shadow", "main", "table"):
            table = getattr(installer, attribute, None)
            if table is not None and hasattr(table, "add_listener"):
                self.watch_table(table, f"{key}:{attribute}")

    def watch_simulation(self, simulation) -> None:
        """Instrument a :class:`~repro.simulator.Simulation` end to end:
        its scheduler, and every agent, channel, and installer (with
        physical tables) of its controller."""
        self.watch_scheduler(simulation._scheduler)
        controller = simulation.controller
        for name in sorted(controller.agents):
            agent = controller.agents[name]
            self.watch_agent(agent)
            self.watch_installer(agent.installer, f"installer:{name}")
        for name in sorted(controller.channels):
            self.watch_channel(controller.channels[name], f"channel:{name}")

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def finish(self) -> List[RaceReport]:
        """Close the open footprint, analyze the last instant, and return
        every (unsuppressed) race found during the run."""
        self._close_current()
        self._flush_instant()
        return self.races

    def _close_current(self) -> None:
        footprint = self._current
        self._current = None
        if footprint is not None and (footprint.reads or footprint.writes):
            self._instant.append(footprint)

    def _flush_instant(self) -> None:
        """Analyze the buffered instant: conflicts within one ``(time,
        tier)`` bucket are races; buckets at different tiers are ordered
        by the tier field and never conflict."""
        instant, self._instant = self._instant, []
        if len(instant) < 2:
            return
        buckets: Dict[int, List[_Footprint]] = {}
        for footprint in instant:
            buckets.setdefault(footprint.event.tier, []).append(footprint)
        for tier in sorted(buckets):
            group = buckets[tier]
            if len(group) >= 2:
                self._analyze_bucket(tier, group)

    def _analyze_bucket(self, tier: int, group: List[_Footprint]) -> None:
        accesses: Dict[str, List[Tuple[_Footprint, str]]] = {}
        for footprint in group:
            for key, detail in footprint.writes.items():
                accesses.setdefault(key, []).append((footprint, "write"))
            for key, detail in footprint.reads.items():
                if key not in footprint.writes:
                    accesses.setdefault(key, []).append((footprint, "read"))
        time = group[0].event.time
        for key in sorted(accesses):
            entries = accesses[key]
            writers = [entry for entry in entries if entry[1] == "write"]
            if not writers or len(entries) < 2:
                continue
            first_fp, first_mode = writers[0]
            second = next(
                (entry for entry in entries if entry[0] is not first_fp), None
            )
            if second is None:
                continue
            second_fp, second_mode = second
            report = RaceReport(
                time=time,
                tier=tier,
                key=key,
                first=self._witness(first_fp, first_mode, key),
                second=self._witness(second_fp, second_mode, key),
            )
            if self._is_suppressed(first_fp, key) or self._is_suppressed(
                second_fp, key
            ):
                self.suppressed.append(report)
                continue
            self.races.append(report)
            tracer = self.tracer
            if tracer.enabled:
                tracer.event(
                    "race.schedule-order",
                    time=time,
                    category="race",
                    key=key,
                    tier=tier,
                    first=f"{report.first.kind}@{report.first.site}",
                    second=f"{report.second.kind}@{report.second.site}",
                )

    @staticmethod
    def _witness(footprint: _Footprint, mode: str, key: str) -> RaceWitness:
        detail = (
            footprint.writes.get(key, "")
            if mode == "write"
            else footprint.reads.get(key, "")
        )
        return RaceWitness(
            kind=footprint.event.kind,
            seq=footprint.event.seq,
            access=mode,
            site=footprint.site,
            detail=detail,
        )

    @staticmethod
    def _is_suppressed(footprint: _Footprint, key: str) -> bool:
        return SCHEDULE_ORDER_RACE in footprint.allowed or key in footprint.allowed

    def _wrap_writes(self, target, key: str, method_names) -> None:
        """Shadow instance methods with write-recording delegates."""
        sanitizer = self
        for name in method_names:
            original = getattr(target, name, None)
            if original is None:
                continue

            def recording(*args, _original=original, _name=name, **kwargs):
                sanitizer.record_write(key, _name)
                return _original(*args, **kwargs)

            setattr(target, name, recording)

    @staticmethod
    def _calling_site() -> Tuple[str, frozenset]:
        """``(path:line, allowed-rules)`` of the nearest non-plumbing frame."""
        # Skip _calling_site and on_schedule; the schedule wrapper and the
        # kernel are plumbing frames, skipped below.
        frame = sys._getframe(2)
        while frame is not None:
            path = frame.f_code.co_filename
            normalized = path.replace(os.sep, "/")
            if not any(
                fragment in normalized for fragment in _PLUMBING_FRAGMENTS
            ):
                pragmas = file_pragmas(path, RACE)
                line = frame.f_lineno
                return (
                    f"{path}:{line}",
                    frozenset(pragmas.allowed.get(line, ())),
                )
            frame = frame.f_back
        return "", frozenset()

    def __repr__(self) -> str:
        return (
            f"RaceSanitizer(events={self.events_seen}, "
            f"races={len(self.races)}, suppressed={len(self.suppressed)})"
        )


# ----------------------------------------------------------------------
# Scenario drivers (shared by the CLI and CI)
# ----------------------------------------------------------------------
def run_fixture(path: str, sanitizer: Optional[RaceSanitizer] = None):
    """Run a race-scenario fixture file under the sanitizer.

    The fixture module must expose ``run(sanitizer)``, which builds a
    scheduler (attaching the sanitizer) and drives it to completion; this
    helper imports it by path, runs it, and returns the finished
    sanitizer.  Used by the planted-race fixture in CI's must-fail loop.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location("race_fixture", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot import fixture {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sanitizer is None:
        sanitizer = RaceSanitizer()
    module.run(sanitizer)
    sanitizer.finish()
    return sanitizer


def run_scenario(name: str, sanitizer: Optional[RaceSanitizer] = None):
    """Run one canned scenario end to end under the sanitizer.

    ``name`` is ``fig01``, ``fig08``, or ``chaos`` (the parity
    scenarios, quick scale).  Returns
    ``(sanitizer, metrics)`` with the sanitizer finished.  These are the
    runs CI requires to be race-free.
    """
    if sanitizer is None:
        sanitizer = RaceSanitizer()
    from ..experiments.common import canned_scenario

    simulation, _meta = canned_scenario(name)
    sanitizer.watch_simulation(simulation)
    metrics = simulation.run()
    sanitizer.finish()
    return sanitizer, metrics
