"""The tracing core: sim-time spans, typed events, and gauge samples.

Three record types, all timestamped in *simulated* seconds (the determinism
lint's ``wall-clock`` and ``wallclock-seam`` rules flag every wall-clock
read, so none can be fed into one):

* **span** — a named interval with attributes, e.g. one FlowMod's trip
  through a channel or one Rule Manager migration.  Spans nest: a span
  started while another is open records it as its parent, which is how the
  trace ties a TCAM write to the channel send that caused it.
* **event** — a named instant (a GateKeeper verdict, a channel timeout, an
  injected fault), attached to the innermost open span.
* **sample** — a named gauge reading (shadow occupancy, bucket tokens),
  recorded only when the value changes.

The process-global tracer defaults to a no-op :class:`Tracer` whose methods
return immediately — instrumented code paths perform no recording and no
extra randomness, so untraced runs stay byte-identical to the seed.  Tests
and experiments install a :class:`RecordingTracer` with
:func:`use_tracer`/:func:`set_tracer`; the switch agent, the channels,
Hermes, the Rule Manager and the fault log all record to that ambient
tracer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Versioned trace format tag, carried in the JSONL header line (the same
#: convention as ``hermes-table-snapshot/1``).
TRACE_FORMAT = "hermes-trace/1"


class _NullSpan:
    """The span handle the no-op tracer returns: absorbs all calls."""

    __slots__ = ()
    span_id = 0

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def finish(self, end: float, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """The no-op tracer: the default, and the interface.

    Every method is safe to call unconditionally from instrumented code;
    hot paths may still guard expensive attribute computation behind
    :attr:`enabled`.
    """

    enabled = False

    def start_span(
        self, name: str, start: float, category: str = "", **attrs
    ) -> "_NullSpan":
        """Open a span at sim time ``start``; finish it via the handle."""
        return NULL_SPAN

    def event(self, name: str, time: float, category: str = "", **attrs) -> None:
        """Record a named instant at sim time ``time``."""
        return None

    def sample(self, name: str, time: float, value: float, **attrs) -> None:
        """Record a gauge reading at sim time ``time``."""
        return None

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """No-op: a tracer that records nothing has nothing to deliver."""
        return None


class Span:
    """Handle for an open span of a :class:`RecordingTracer`."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "category", "start", "attrs")

    def __init__(
        self,
        tracer: "RecordingTracer",
        span_id: int,
        parent_id: int,
        name: str,
        category: str,
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.attrs = attrs

    def annotate(self, **attrs) -> "Span":
        """Merge attributes into the span (last write wins per key)."""
        self.attrs.update(attrs)
        return self

    def finish(self, end: float, **attrs) -> None:
        """Close the span at sim time ``end``, emitting its record.

        Idempotent: a second finish is ignored, so error paths can finish
        defensively without double-recording.
        """
        self._tracer._finish_span(self, end, attrs)

    def __repr__(self) -> str:
        return f"Span(#{self.span_id} {self.name!r} start={self.start:.6f})"


class RecordingTracer(Tracer):
    """A tracer that records and notifies.

    Records are plain JSON-ready dicts appended to :attr:`records` in
    emission order (a span emits when it *finishes*).  Span ids come from a
    per-tracer counter, so two processes tracing the same deterministic run
    produce identical records.  Listeners registered with
    :meth:`add_listener` see every record as it is emitted — the online
    verification hook of the chaos harness rides on this.
    """

    enabled = True

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self.records: List[dict] = []
        self._listeners: List[Callable[[dict], None]] = []
        self._next_id = 1
        self._open: List[Span] = []
        self._last_sample: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def current_span_id(self) -> int:
        """Id of the innermost open span (0 when none is open)."""
        return self._open[-1].span_id if self._open else 0

    def start_span(self, name: str, start: float, category: str = "", **attrs) -> Span:
        span = Span(
            tracer=self,
            span_id=self._next_id,
            parent_id=self.current_span_id,
            name=name,
            category=category,
            start=start,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._open.append(span)
        return span

    def _finish_span(self, span: Span, end: float, attrs: Dict[str, object]) -> None:
        # Remove from the open stack wherever it sits (normally the top;
        # error paths may finish out of order) — and make finish idempotent.
        for index in range(len(self._open) - 1, -1, -1):
            if self._open[index] is span:
                del self._open[index]
                break
        else:
            return  # already finished
        span.attrs.update(attrs)
        self._emit(
            {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "cat": span.category,
                "start": span.start,
                "end": end,
                "attrs": span.attrs,
            }
        )

    def event(self, name: str, time: float, category: str = "", **attrs) -> None:
        self._emit(
            {
                "type": "event",
                "name": name,
                "cat": category,
                "time": time,
                "span": self.current_span_id,
                "attrs": dict(attrs),
            }
        )

    def sample(self, name: str, time: float, value: float, **attrs) -> None:
        # Sampled on change: consecutive identical readings of one series
        # collapse.  A series is (name, attrs) — per-switch gauges with the
        # same name dedup independently.
        key = (name, tuple(sorted((k, str(v)) for k, v in attrs.items())))
        last = self._last_sample.get(key)
        if last is not None and last == value:
            return
        self._last_sample[key] = value
        self._emit(
            {
                "type": "sample",
                "name": name,
                "time": time,
                "value": value,
                "attrs": dict(attrs),
            }
        )

    def _emit(self, record: dict) -> None:
        self.records.append(record)
        for listener in self._listeners:
            listener(record)

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """Call ``listener(record)`` for every record emitted from now on."""
        self._listeners.append(listener)

    def open_spans(self) -> List[Span]:
        """Spans started but not yet finished (diagnostic)."""
        return list(self._open)

    def __repr__(self) -> str:
        return f"RecordingTracer(records={len(self.records)}, open={len(self._open)})"


# ---------------------------------------------------------------------------
# The process-global tracer
# ---------------------------------------------------------------------------

_GLOBAL_TRACER: Tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer (the no-op :class:`Tracer` by default)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Install ``tracer`` globally for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
