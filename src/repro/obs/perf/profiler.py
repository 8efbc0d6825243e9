"""The wall-clock profiler: hotspot attribution over the kernel's seams.

``repro.obs`` answers *where the simulated milliseconds go*; this module
answers *where the wall-clock seconds go* — the question every scaling PR
(columnar fair share, million-flow runs) must be measured against.  The
profiler is opt-in instrumentation riding the same two seams the race
sanitizer uses, and with the same contract: detached, the hot-path cost
is a single ``is None`` test and runs are byte-identical to an
uninstrumented process.

* **Kernel dispatch** — :meth:`Profiler.on_dispatch` attaches via
  :meth:`repro.engine.scheduler.EventScheduler.attach_profiler`.  All
  wall time between two consecutive pops belongs to the first popped
  event (exactly how the sanitizer attributes state accesses), so every
  second of the run loop lands in a bucket keyed by event kind.  Work
  the loop drives *without* popping (arrival admission, rate
  recomputes) is cut into its own bucket by the loop's
  :meth:`Profiler.mark` calls.
* **The tracer span stream** — :meth:`Profiler.watch_tracer` wraps a
  :class:`~repro.obs.tracer.RecordingTracer`'s span open/close path,
  stamping wall-clock at both ends.  Because every control-plane layer
  already emits spans (``agent.action``, ``flowmod``, ``install.batch``,
  ``hermes.migration``), this yields per-span-name **self** and
  **cumulative** wall time with no per-subsystem instrumentation at all.

Both accumulations roll up into *subsystems* (kernel dispatch, fair
share, TCAM/switch CPU, channel, installers, verifier, Rule Manager) via
:func:`subsystem_of`, and :meth:`Profiler.finish` freezes everything
into a :class:`ProfileReport` — renderable as a table, serializable for
the ``hermes-bench/1`` artifact stream, and exportable as collapsed
stacks for speedscope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .wallclock import wallclock

#: Buckets that measure the harness rather than the simulation: excluded
#: from the *attributed* fraction the acceptance gate checks.
UNATTRIBUTED_LABELS = frozenset({"setup", "shutdown"})

#: ``(prefix, subsystem)`` pairs, first match wins.  Dispatch labels are
#: ``event:<kind>``; span labels are ``span:<name>``; loop marks are
#: ``sim.<what>``.  A TE epoch is cut three ways: ``event:epoch`` keeps
#: the read of rates and link utilization from the flow store (fair-share
#: state), ``sim.te_plan`` the TE app's planning, and ``sim.te_install``
#: the installs of the planned moves.  ``sim.rule_removal`` cuts the rule
#: deletes that follow a completion or a path activation out of
#: ``event:complete`` and ``event:activate``.
_SUBSYSTEM_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("event:epoch", "fairshare"),
    ("event:complete", "completion"),
    ("event:activate", "installer"),
    ("event:start", "installer"),
    ("event:fail", "installer"),
    ("event:flowmod", "channel"),
    ("event:", "kernel-dispatch"),
    ("sim.arrival", "arrival"),
    ("sim.fairshare", "fairshare"),
    ("sim.te_plan", "te_plan"),
    ("sim.te_install", "installer"),
    ("sim.rule_removal", "rule_removal"),
    ("span:flowmod", "channel"),
    ("span:channel", "channel"),
    ("span:agent.", "switch-cpu"),
    ("span:install.", "installer"),
    ("span:hermes.migration", "rule-manager"),
    ("span:hermes.", "gatekeeper"),
    ("span:verify", "verifier"),
    ("span:fairshare", "fairshare"),
)


def subsystem_of(label: str) -> str:
    """Map a profiler label to its subsystem (first matching prefix).

    Unknown labels map to themselves, so new event kinds or span names
    show up in reports immediately instead of vanishing into "other".
    """
    for prefix, subsystem in _SUBSYSTEM_PREFIXES:
        if label.startswith(prefix):
            return subsystem
    return label


@dataclass
class SpanCost:
    """Wall-clock cost of one span name across a profiled run."""

    count: int = 0
    self_seconds: float = 0.0
    cumulative_seconds: float = 0.0


@dataclass
class ProfileReport:
    """A finished profile: where the wall-clock seconds went.

    Attributes:
        total_seconds: wall time between :meth:`Profiler.begin` and
            :meth:`Profiler.finish`.
        segments: per-label ``(count, seconds)`` of dispatch-timeline
            segments (labels: ``event:<kind>``, ``sim.arrival``, ...).
        spans: per-span-name wall-clock costs from the tracer stream.
        subsystems: roll-up of ``segments`` by :func:`subsystem_of`.
        attributed_seconds: total segment time outside
            :data:`UNATTRIBUTED_LABELS`.
        meta: free-form context (scenario name, scheme, seed).
    """

    total_seconds: float = 0.0
    segments: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    spans: Dict[str, SpanCost] = field(default_factory=dict)
    subsystems: Dict[str, float] = field(default_factory=dict)
    attributed_seconds: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def attributed_fraction(self) -> float:
        """Share of measured wall time attributed to named subsystems."""
        if self.total_seconds <= 0:
            return 0.0
        return min(1.0, self.attributed_seconds / self.total_seconds)

    def to_dict(self) -> dict:
        """JSON-ready payload (sorted keys, plain types)."""
        return {
            "total_seconds": self.total_seconds,
            "attributed_seconds": self.attributed_seconds,
            "attributed_fraction": self.attributed_fraction,
            "segments": {
                label: {"count": count, "seconds": seconds}
                for label, (count, seconds) in sorted(self.segments.items())
            },
            "spans": {
                name: {
                    "count": cost.count,
                    "self_seconds": cost.self_seconds,
                    "cumulative_seconds": cost.cumulative_seconds,
                }
                for name, cost in sorted(self.spans.items())
            },
            "subsystems": dict(sorted(self.subsystems.items())),
            "meta": dict(self.meta),
        }

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``subsystem;label weight_us``) of the
        dispatch timeline — loadable by speedscope / flamegraph.pl."""
        lines = []
        for label in sorted(self.segments):
            _count, seconds = self.segments[label]
            weight = int(round(seconds * 1e6))
            if weight > 0:
                lines.append(f"{subsystem_of(label)};{label} {weight}")
        return lines

    def render(self, top: int = 12) -> str:
        """The CLI's text report for one profile."""
        lines = [
            f"profiled {self.total_seconds * 1e3:.1f} ms wall-clock, "
            f"{self.attributed_fraction * 100:.1f}% attributed to named "
            f"subsystems"
        ]
        if self.meta:
            rendered = ", ".join(
                f"{key}={self.meta[key]}" for key in sorted(self.meta)
            )
            lines.append(f"meta: {rendered}")
        lines.append("")
        lines.append(f"{'subsystem':<18}{'wall (ms)':>12}{'share':>9}")
        for name, seconds in sorted(
            self.subsystems.items(), key=lambda item: -item[1]
        ):
            share = seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(f"{name:<18}{seconds * 1e3:>12.3f}{share * 100:>8.1f}%")
        ranked_segments = sorted(
            self.segments.items(), key=lambda item: -item[1][1]
        )[:top]
        if ranked_segments:
            lines.append("")
            lines.append(
                f"{'dispatch label':<22}{'count':>8}{'wall (ms)':>12}"
                f"{'ms/event':>10}"
            )
            for label, (count, seconds) in ranked_segments:
                per = seconds / count * 1e3 if count else 0.0
                lines.append(
                    f"{label:<22}{count:>8}{seconds * 1e3:>12.3f}{per:>10.4f}"
                )
        ranked_spans = sorted(
            self.spans.items(), key=lambda item: -item[1].self_seconds
        )[:top]
        if ranked_spans:
            lines.append("")
            lines.append(
                f"{'span name':<22}{'count':>8}{'self (ms)':>12}{'cum (ms)':>12}"
            )
            for name, cost in ranked_spans:
                lines.append(
                    f"{name:<22}{cost.count:>8}"
                    f"{cost.self_seconds * 1e3:>12.3f}"
                    f"{cost.cumulative_seconds * 1e3:>12.3f}"
                )
        return "\n".join(lines)


class Profiler:
    """Accumulates wall-clock time per event kind and span name.

    Life cycle: construct, attach (:meth:`watch_scheduler` and/or
    :meth:`watch_tracer`), :meth:`begin` right before the run,
    :meth:`finish` right after — everything between lands in a named
    bucket.  The object is single-use; profile a second run with a
    fresh instance.
    """

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self._segments: Dict[str, List[float]] = {}  # label -> [count, sec]
        self._spans: Dict[str, SpanCost] = {}
        # Parallel stack of open profiled spans: [span_id, name,
        # opened_at_wall, child_seconds].
        self._span_stack: List[List[object]] = []
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None
        self._cursor: float = 0.0
        self._label: str = "setup"
        self.events_seen = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def watch_scheduler(self, scheduler) -> "Profiler":
        """Attach to an :class:`~repro.engine.scheduler.EventScheduler`."""
        scheduler.attach_profiler(self)
        return self

    def watch_tracer(self, tracer) -> "Profiler":
        """Wrap a :class:`~repro.obs.tracer.RecordingTracer`'s span path.

        The wrappers stamp wall-clock at span open and close; they call
        straight through to the tracer, so the recorded (sim-time) trace
        is unchanged — the profiler is a pure observer of the stream.
        """
        original_start = tracer.start_span
        original_finish = tracer._finish_span

        def start_span(name, start, category="", **attrs):
            span = original_start(name, start, category, **attrs)
            self._span_stack.append([span.span_id, name, wallclock(), 0.0])
            return span

        def _finish_span(span, end, attrs):
            was_open = any(open_span is span for open_span in tracer._open)
            original_finish(span, end, attrs)
            if was_open:
                self._close_span(span.span_id)

        tracer.start_span = start_span
        tracer._finish_span = _finish_span
        return self

    def watch_simulation(self, simulation) -> "Profiler":
        """Attach to a simulation's scheduler (the usual entry point)."""
        return self.watch_scheduler(simulation._scheduler)

    # ------------------------------------------------------------------
    # The dispatch timeline
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start the stopwatch; time before the first event is ``setup``."""
        self._t0 = self._cursor = wallclock()
        self._label = "setup"

    def _cut(self, new_label: str) -> None:
        now = wallclock()
        if self._t0 is None:  # attached but never begun: auto-begin
            self._t0 = now
        else:
            bucket = self._segments.get(self._label)
            if bucket is None:
                bucket = self._segments[self._label] = [0, 0.0]
            bucket[1] += now - self._cursor
        bucket = self._segments.get(new_label)
        if bucket is None:
            bucket = self._segments[new_label] = [0, 0.0]
        bucket[0] += 1
        self._cursor = now
        self._label = new_label

    def on_dispatch(self, event) -> None:
        """Scheduler hook: a kernel event was popped for dispatch."""
        self.events_seen += 1
        self._cut(f"event:{event.kind}")

    def mark(self, label: str) -> None:
        """Loop hook: work driven outside the scheduler starts here
        (arrival admission, rate recomputes)."""
        self._cut(label)

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _close_span(self, span_id: int) -> None:
        for index in range(len(self._span_stack) - 1, -1, -1):
            if self._span_stack[index][0] == span_id:
                _sid, name, opened, child_seconds = self._span_stack.pop(index)
                elapsed = wallclock() - opened
                cost = self._spans.get(name)
                if cost is None:
                    cost = self._spans[name] = SpanCost()
                cost.count += 1
                cost.cumulative_seconds += elapsed
                cost.self_seconds += max(0.0, elapsed - child_seconds)
                if self._span_stack:
                    self._span_stack[-1][3] += elapsed
                return

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def finish(self) -> ProfileReport:
        """Stop the stopwatch and freeze the report (idempotent)."""
        if self._t1 is None:
            self._t1 = wallclock()
            if self._t0 is None:
                self._t0 = self._t1
            else:
                bucket = self._segments.get(self._label)
                if bucket is None:
                    bucket = self._segments[self._label] = [0, 0.0]
                bucket[1] += self._t1 - self._cursor
        segments = {
            label: (int(count), seconds)
            for label, (count, seconds) in self._segments.items()
        }
        subsystems: Dict[str, float] = {}
        attributed = 0.0
        for label, (_count, seconds) in segments.items():
            subsystems[subsystem_of(label)] = (
                subsystems.get(subsystem_of(label), 0.0) + seconds
            )
            if label not in UNATTRIBUTED_LABELS:
                attributed += seconds
        return ProfileReport(
            total_seconds=self._t1 - self._t0,
            segments=segments,
            spans={name: cost for name, cost in self._spans.items()},
            subsystems=subsystems,
            attributed_seconds=attributed,
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:
        return (
            f"Profiler(events={self.events_seen}, "
            f"segments={len(self._segments)}, spans={len(self._spans)})"
        )


def profile_simulation(simulation, tracer=None, meta=None) -> ProfileReport:
    """Run ``simulation`` under a fresh profiler; returns the report.

    Attaches to the simulation's scheduler (and to ``tracer``'s span
    stream when given), begins right before ``run()`` and finishes right
    after, so the ``setup`` bucket stays negligible.  Callers that also
    need the run's metrics should run the simulation themselves and
    drive a :class:`Profiler` by hand.
    """
    profiler = Profiler(meta=meta)
    profiler.watch_simulation(simulation)
    if tracer is not None and getattr(tracer, "enabled", False):
        profiler.watch_tracer(tracer)
    profiler.begin()
    simulation.run()
    return profiler.finish()
