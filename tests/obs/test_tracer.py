"""Tests for the tracing core: spans, events, samples, listeners, globals."""

from repro.obs.tracer import (
    NULL_SPAN,
    RecordingTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestNoOpTracer:
    def test_global_default_is_disabled(self):
        assert isinstance(get_tracer(), Tracer)
        assert not get_tracer().enabled

    def test_null_span_absorbs_everything(self):
        tracer = Tracer()
        span = tracer.start_span("x", start=0.0)
        assert span is NULL_SPAN
        assert span.annotate(foo=1) is span
        span.finish(end=1.0, bar=2)  # no-op, no error
        assert tracer.event("e", time=0.0) is None
        assert tracer.sample("g", time=0.0, value=1.0) is None

    def test_use_tracer_installs_and_restores(self):
        previous = get_tracer()
        recording = RecordingTracer()
        with use_tracer(recording):
            assert get_tracer() is recording
        assert get_tracer() is previous

    def test_set_tracer_returns_previous(self):
        recording = RecordingTracer()
        previous = set_tracer(recording)
        try:
            assert get_tracer() is recording
        finally:
            set_tracer(previous)


class TestRecordingSpans:
    def test_span_ids_start_at_one_and_increment(self):
        tracer = RecordingTracer()
        a = tracer.start_span("a", start=0.0)
        b = tracer.start_span("b", start=0.1)
        assert (a.span_id, b.span_id) == (1, 2)

    def test_nesting_assigns_parents(self):
        tracer = RecordingTracer()
        outer = tracer.start_span("outer", start=0.0)
        inner = tracer.start_span("inner", start=0.1)
        assert inner.parent_id == outer.span_id
        inner.finish(end=0.2)
        outer.finish(end=0.3)
        records = tracer.records
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent"] == outer.span_id
        assert records[1]["parent"] == 0

    def test_finish_is_idempotent(self):
        tracer = RecordingTracer()
        span = tracer.start_span("x", start=0.0)
        span.finish(end=1.0)
        span.finish(end=2.0)
        assert len(tracer.records) == 1
        assert tracer.records[0]["end"] == 1.0

    def test_out_of_order_finish(self):
        tracer = RecordingTracer()
        outer = tracer.start_span("outer", start=0.0)
        inner = tracer.start_span("inner", start=0.1)
        outer.finish(end=0.3)  # error path: outer closes first
        inner.finish(end=0.2)
        assert not tracer.open_spans()
        assert {r["name"] for r in tracer.records} == {"outer", "inner"}

    def test_event_attaches_to_innermost_open_span(self):
        tracer = RecordingTracer()
        span = tracer.start_span("x", start=0.0)
        tracer.event("verdict", time=0.05, reason="ok")
        span.finish(end=0.1)
        event = next(r for r in tracer.records if r["type"] == "event")
        assert event["span"] == span.span_id
        assert event["attrs"]["reason"] == "ok"

    def test_annotate_merges_attrs(self):
        tracer = RecordingTracer()
        span = tracer.start_span("x", start=0.0, a=1)
        span.annotate(b=2)
        span.finish(end=1.0, c=3)
        assert tracer.records[0]["attrs"] == {"a": 1, "b": 2, "c": 3}


class TestSampleDedup:
    def test_consecutive_identical_readings_collapse(self):
        tracer = RecordingTracer()
        tracer.sample("occ", time=0.0, value=5.0, switch="s1")
        tracer.sample("occ", time=1.0, value=5.0, switch="s1")
        tracer.sample("occ", time=2.0, value=6.0, switch="s1")
        assert len(tracer.records) == 2

    def test_series_are_per_attrs(self):
        # Two switches alternating readings must not collapse each other.
        tracer = RecordingTracer()
        tracer.sample("occ", time=0.0, value=5.0, switch="s1")
        tracer.sample("occ", time=0.1, value=5.0, switch="s2")
        tracer.sample("occ", time=0.2, value=5.0, switch="s1")
        assert len(tracer.records) == 2


class TestListeners:
    def test_listener_sees_every_record(self):
        tracer = RecordingTracer()
        seen = []
        tracer.add_listener(seen.append)
        tracer.event("e", time=0.0)
        tracer.start_span("s", start=0.0).finish(end=1.0)
        assert [r["type"] for r in seen] == ["event", "span"]
