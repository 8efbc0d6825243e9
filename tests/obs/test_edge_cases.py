"""Edge cases across ``repro.obs``: empty traces and orphans.

Observability code runs on whatever a scenario happened to emit — an
aborted run's empty trace, a crashed layer's orphaned spans — so the
summarizer, exporters, and flamegraph folder must degrade to sensible
output instead of raising.
"""

import json

import pytest

from repro.obs import (
    RecordingTracer,
    chrome_trace,
    parse_trace_lines,
    trace_lines,
)
from repro.obs.perf.flame import trace_collapsed
from repro.obs.summary import flowmod_breakdowns, render_summary, summarize


class TestEmptyTrace:
    def test_summarize_an_empty_recording(self):
        tracer = RecordingTracer(meta={"scenario": "aborted"})
        header, records = parse_trace_lines(trace_lines(tracer))
        summary = summarize(header, records)
        assert summary.breakdowns == []
        assert summary.record_counts == {}
        assert summary.span_range == (0.0, 0.0)
        text = render_summary(summary)
        assert "0 control actions (none)" in text

    def test_exporters_on_an_empty_recording(self):
        tracer = RecordingTracer()
        payload = chrome_trace(tracer.records)
        # Only thread-name metadata events; no spans, counters, instants.
        assert all(event["ph"] == "M" for event in payload["traceEvents"])
        assert trace_collapsed(tracer.records) == []

    def test_trace_lines_still_carry_the_header(self):
        tracer = RecordingTracer(meta={"k": "v"})
        lines = trace_lines(tracer)
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["format"] == "hermes-trace/1"
        assert header["meta"] == {"k": "v"}


class TestOrphanedSpans:
    def test_flowmod_without_actions_is_not_installed(self):
        # An undelivered send: the flowmod span closed but no agent ran.
        records = [
            {"type": "span", "id": 1, "parent": 0, "name": "flowmod",
             "start": 0.0, "end": 0.01,
             "attrs": {"attempts": 3, "delivered": False}},
        ]
        assert flowmod_breakdowns(records) == []

    def test_action_whose_parent_never_finished(self):
        # The enclosing flowmod span is missing from the stream (still
        # open at shutdown): the action must surface channel-less rather
        # than vanish.
        records = [
            {"type": "span", "id": 7, "parent": 3, "name": "agent.action",
             "start": 0.0, "end": 0.002,
             "attrs": {"switch": "s1", "command": "add"}},
        ]
        items = flowmod_breakdowns(records)
        assert len(items) == 1
        assert items[0].channel == 0.0
        assert items[0].tcam == pytest.approx(0.002)

    def test_orphaned_span_roots_its_own_flame_stack(self):
        records = [
            {"type": "span", "id": 7, "parent": 3, "name": "agent.action",
             "start": 0.0, "end": 0.002, "attrs": {}},
        ]
        assert trace_collapsed(records) == ["agent.action 2000"]

    def test_open_spans_do_not_emit_records(self):
        tracer = RecordingTracer()
        tracer.start_span("flowmod", 0.0)
        assert tracer.records == []
        assert len(tracer.open_spans()) == 1
        summary = summarize({}, tracer.records)
        assert summary.breakdowns == []

