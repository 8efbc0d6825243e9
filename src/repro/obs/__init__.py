"""Observability for the control plane: tracing, exporters, the ledger.

``repro.obs`` is zero-dependency (stdlib only) and built around sim time:

* :mod:`~repro.obs.tracer` — spans, events, gauge samples; a no-op global
  tracer by default so untraced runs stay byte-identical to the seed.
* :mod:`~repro.obs.export` — JSONL (``hermes-trace/1``) and Chrome
  trace-event JSON.
* :mod:`~repro.obs.summary` — per-stage FlowMod breakdowns, from a trace
  or from a run's channel histories, and the trace summary and diff
  around their guarantee-burn ledger (the engine behind
  ``python -m repro.obs``).
* :mod:`~repro.obs.online` — the tracer-listener verification hook.
* :mod:`~repro.obs.perf` — the wall-clock performance observatory:
  opt-in hotspot profiler, guarantee-burn ledger, and the
  ``hermes-bench/1`` benchmark artifact layer.

See ``docs/observability.md`` for the span taxonomy and trace schema.
"""

from .export import (
    chrome_trace,
    parse_trace_lines,
    read_trace,
    trace_lines,
    write_chrome_trace,
    write_trace,
)
from .online import OnlineVerifier
from .summary import (
    FlowModBreakdown,
    TraceSummary,
    flowmod_breakdowns,
    percentile,
    render_diff,
    render_summary,
    run_breakdowns,
    summarize,
)
from .tracer import (
    NULL_SPAN,
    TRACE_FORMAT,
    RecordingTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "TRACE_FORMAT",
    "NULL_SPAN",
    "Tracer",
    "RecordingTracer",
    "Span",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_lines",
    "write_trace",
    "parse_trace_lines",
    "read_trace",
    "chrome_trace",
    "write_chrome_trace",
    "OnlineVerifier",
    "FlowModBreakdown",
    "TraceSummary",
    "flowmod_breakdowns",
    "run_breakdowns",
    "summarize",
    "percentile",
    "render_summary",
    "render_diff",
]
