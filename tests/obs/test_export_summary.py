"""Tests for the exporters and the trace summarizer.

One synthetic trace, built through the real RecordingTracer, exercises the
whole read side: JSONL round-trip, Chrome conversion, per-stage breakdown
arithmetic, and the rendered reports.
"""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    parse_trace_lines,
    read_trace,
    trace_lines,
    write_trace,
)
from repro.obs.summary import (
    flowmod_breakdowns,
    percentile,
    render_diff,
    render_summary,
    summarize,
)
from repro.obs.tracer import TRACE_FORMAT, RecordingTracer


def build_trace() -> RecordingTracer:
    """One FlowMod through a channel, plus gauges: known stage values.

    The span nest is the agent's: flowmod -> agent.batch (a batch of one)
    -> agent.action, with the Gate Keeper event
    emitted under the batch span before the action span opens.  Each
    span carries the stages its component records.

    flowmod span: 0.000 -> 0.005 (5 ms), batch window 0.002 -> 0.004
    (2 ms) => channel = 3 ms.  queue_delay = 1 ms, exec_latency = 2 ms,
    gatekeeper = 0.2 ms => tcam = 1.8 ms.
    """
    tracer = RecordingTracer(meta={"scenario": "unit"})
    flowmod = tracer.start_span(
        "flowmod", start=0.0, category="channel", switch="s1", size=1
    )
    batch = tracer.start_span(
        "agent.batch", start=0.002, category="agent", switch="s1", size=1
    )
    tracer.event(
        "hermes.gatekeeper", time=0.002, category="hermes",
        reason="admitted", use_shadow=True, latency=0.0002, rule=7,
    )
    tracer.start_span(
        "agent.action", start=0.002, category="agent", switch="s1",
        command="add", rule=7,
    ).finish(end=0.004, queue_delay=0.001, exec_latency=0.002, gatekeeper=0.0002)
    batch.finish(end=0.004, shifts=3)
    flowmod.finish(end=0.005, delivered=True, attempts=2, channel=0.003)
    tracer.sample("shadow.occupancy", time=0.004, value=10.0, switch="s1")
    tracer.sample("shadow.occupancy", time=0.005, value=12.0, switch="s1")
    return tracer


class TestJsonl:
    def test_round_trip(self):
        tracer = build_trace()
        header, records = parse_trace_lines(trace_lines(tracer))
        assert header["format"] == TRACE_FORMAT
        assert header["meta"] == {"scenario": "unit"}
        assert header["records"] == len(records) == len(tracer.records)
        assert records == json.loads(json.dumps(tracer.records))

    def test_file_round_trip(self, tmp_path):
        tracer = build_trace()
        path = tmp_path / "trace.jsonl"
        write_trace(tracer, str(path))
        header, records = read_trace(str(path))
        assert header["records"] == len(records)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            parse_trace_lines([])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format tag"):
            parse_trace_lines(['{"format": "other/9"}'])

    def test_malformed_record_rejected(self):
        lines = trace_lines(build_trace())[:1] + ['{"no": "type"}']
        with pytest.raises(ValueError, match="line 2"):
            parse_trace_lines(lines)


class TestChromeTrace:
    def test_record_kinds_map_to_phases(self):
        payload = chrome_trace(build_trace().records, meta={"x": 1})
        phases = [event["ph"] for event in payload["traceEvents"]]
        assert "X" in phases and "i" in phases and "C" in phases
        assert payload["otherData"] == {"x": 1}

    def test_switch_records_get_their_own_thread(self):
        payload = chrome_trace(build_trace().records)
        threads = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M"
        }
        assert threads == {"controller", "s1"}

    def test_span_durations_in_microseconds(self):
        payload = chrome_trace(build_trace().records)
        flowmod = next(
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "flowmod"
        )
        assert flowmod["dur"] == pytest.approx(5000.0)


class TestBreakdowns:
    def test_stage_attribution(self):
        breakdowns = flowmod_breakdowns(build_trace().records)
        assert len(breakdowns) == 1
        item = breakdowns[0]
        assert item.gatekeeper == pytest.approx(0.0002)
        assert item.queue == pytest.approx(0.001)
        assert item.tcam == pytest.approx(0.0018)
        assert item.channel == pytest.approx(0.003)
        assert item.switch == "s1"

    def test_direct_submit_has_zero_channel(self):
        tracer = RecordingTracer()
        tracer.start_span(
            "agent.action", start=0.0, switch="s1", command="add"
        ).finish(end=0.002, queue_delay=0.0, exec_latency=0.002)
        breakdowns = flowmod_breakdowns(tracer.records)
        assert len(breakdowns) == 1
        assert breakdowns[0].channel == 0.0

    def test_gatekeeper_joins_its_action_inside_a_batch(self):
        # Two Hermes inserts in one batch: each action span carries the
        # Gate Keeper latency of its own insert, which equals its event's.
        from repro.baselines import make_installer
        from repro.experiments.common import default_hermes_config
        from repro.obs import use_tracer
        from repro.switchsim import FlowMod, SwitchAgent
        from repro.tcam import Action, Rule, get_switch_model

        installer = make_installer(
            "hermes", get_switch_model("pica8-p3290"),
            hermes_config=default_hermes_config(),
        )
        # Ten higher-priority main-table rules block the first insert and
        # none the second, so their Algorithm 1 scans cost differently.
        # The bottom-priority rule keeps both off the main-table fastpath.
        installer.prefill([
            Rule.from_prefix(f"10.{octet}.0.0/16", 9, Action.output(1))
            for octet in range(10)
        ] + [Rule.from_prefix("12.0.0.0/8", 1, Action.output(1))])
        agent = SwitchAgent(installer, name="s1")
        tracer = RecordingTracer()
        with use_tracer(tracer):
            agent.submit_batch(
                (
                    FlowMod.add(Rule.from_prefix("10.0.0.0/8", 5, Action.output(2))),
                    FlowMod.add(Rule.from_prefix("11.0.0.0/8", 5, Action.output(3))),
                ),
                at_time=0.0,
            )
        events = {
            record["attrs"]["rule"]: record["attrs"]["latency"]
            for record in tracer.records
            if record["type"] == "event" and record["name"] == "hermes.gatekeeper"
        }
        actions = [
            record for record in tracer.records
            if record["type"] == "span" and record["name"] == "agent.action"
        ]
        assert len(events) == len(actions) == 2
        assert len(set(events.values())) == 2 and 0.0 not in events.values()
        for action in actions:
            assert action["attrs"]["gatekeeper"] == events[action["attrs"]["rule"]]
        first, second = flowmod_breakdowns(tracer.records)
        assert (first.gatekeeper, second.gatekeeper) == tuple(
            action["attrs"]["gatekeeper"] for action in actions
        )

    def test_gatekeeper_total_matches_events_on_a_te_run(self):
        from repro.experiments.common import canned_scenario
        from repro.obs import use_tracer

        simulation, _meta = canned_scenario("fig01")
        tracer = RecordingTracer()
        with use_tracer(tracer):
            simulation.run()
        events = [
            record["attrs"]["latency"]
            for record in tracer.records
            if record["type"] == "event" and record["name"] == "hermes.gatekeeper"
        ]
        breakdowns = flowmod_breakdowns(tracer.records)
        assert events and sum(events) > 0
        assert sum(item.gatekeeper for item in breakdowns) == pytest.approx(
            sum(events)
        )
        assert sum(item.gatekeeper > 0 for item in breakdowns) == sum(
            latency > 0 for latency in events
        )

    def test_single_flowmod_replay_keeps_gatekeeper_and_shifts(self):
        from repro.experiments.common import default_hermes_config, replay_trace
        from repro.obs import use_tracer
        from repro.traffic.microbench import (
            MicrobenchConfig,
            generate_trace,
            seed_rules,
        )

        config = MicrobenchConfig(arrival_rate=1000, duration=0.2)
        tracer = RecordingTracer()
        with use_tracer(tracer):
            replay_trace(
                generate_trace(config), "hermes", "pica8-p3290",
                hermes_config=default_hermes_config(),
                prefill_rules=seed_rules(config),
            )
        admitted = sum(
            record["attrs"]["latency"] > 0
            for record in tracer.records
            if record["type"] == "event" and record["name"] == "hermes.gatekeeper"
        )
        breakdowns = flowmod_breakdowns(tracer.records)
        assert len(breakdowns) == 200
        assert admitted > 150
        assert sum(item.gatekeeper > 0 for item in breakdowns) == admitted
        # Shifts are measured batch-wide, on the batch span.
        batches = [
            record for record in tracer.records
            if record["type"] == "span" and record["name"] == "agent.batch"
        ]
        assert batches and all("shifts" in batch["attrs"] for batch in batches)

    def test_undelivered_flowmods_excluded(self):
        tracer = RecordingTracer()
        tracer.start_span("flowmod", start=0.0, switch="s1").finish(
            end=0.001, delivered=False, attempts=1
        )
        assert flowmod_breakdowns(tracer.records) == []


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([], 50) == 0.0


class TestRendering:
    def test_summary_report_contains_stages_and_gauges(self):
        tracer = build_trace()
        summary = summarize({"format": TRACE_FORMAT, "meta": tracer.meta},
                            tracer.records)
        rendered = render_summary(summary)
        assert "1 control actions (1 add)" in rendered
        for stage in ("gatekeeper", "queue", "tcam", "channel"):
            assert stage in rendered
        assert "shadow.occupancy[switch=s1]" in rendered
        assert "hermes.gatekeeper" in rendered

    def test_diff_report_runs(self):
        tracer = build_trace()
        summary = summarize({"format": TRACE_FORMAT}, tracer.records)
        rendered = render_diff(summary, summary, "a.jsonl", "b.jsonl")
        assert "Δmean" in rendered and "Δp99" in rendered
        assert "a.jsonl" in rendered and "b.jsonl" in rendered
