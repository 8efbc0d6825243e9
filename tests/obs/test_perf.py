"""Tests for ``repro.obs.perf``: profiler, burn ledger, bench layer, CLI.

The load-bearing test is the cross-process parity check: a chaos run with
the profiler attached must produce the *same pinned digests* as the
uninstrumented seed capture — observation must not perturb, with zero
tolerance.  The rest exercises the attribution math, the guarantee-burn
ledger, the ``hermes-bench/1`` artifact layer, and the ``perf`` CLI.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.perf.bench import (
    BENCH_FORMAT,
    HeadlineDelta,
    append_history,
    bench_artifact,
    compare,
    load_artifact,
    machine_fingerprint,
    metric_direction,
    read_history,
    write_bench_artifact,
    write_index,
)
from repro.obs.perf.burn import (
    DEFAULT_GUARANTEE_SECONDS,
    guarantee_burn,
)
from repro.obs.perf.flame import trace_collapsed
from repro.obs.perf.profiler import (
    Profiler,
    UNATTRIBUTED_LABELS,
    subsystem_of,
)
from repro.obs.summary import FlowModBreakdown
from repro.obs.tracer import RecordingTracer

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# The chaos scenario's pinned seed digests (tests/engine/test_parity.py):
# the profiler-off subprocess must still reproduce them, and profiler-on
# must match profiler-off byte-for-byte.
CHAOS_RESULT_DIGEST = (
    "acbdc2d3d7e6aa00fe02c53b73b6aa8213ea634e2e4d8f3ee09eab7b8575c244"
)
CHAOS_TRACE_DIGEST = (
    "f9af0d1c220df4e67fdd252413ce0f9e8cc0b32694975bedfd5256ca55adaddb"
)


# ---------------------------------------------------------------------------
# Subsystem attribution
# ---------------------------------------------------------------------------

class TestSubsystemOf:
    def test_dispatch_labels(self):
        assert subsystem_of("event:epoch") == "fairshare"
        assert subsystem_of("event:complete") == "completion"
        assert subsystem_of("event:flowmod-arrive") == "channel"
        assert subsystem_of("event:activate") == "installer"
        assert subsystem_of("event:something-new") == "kernel-dispatch"

    def test_span_labels(self):
        assert subsystem_of("span:agent.action") == "switch-cpu"
        assert subsystem_of("span:install.path") == "installer"
        assert subsystem_of("span:hermes.migration") == "rule-manager"
        assert subsystem_of("span:hermes.gatekeeper") == "gatekeeper"
        assert subsystem_of("span:verify.online") == "verifier"

    def test_loop_marks(self):
        assert subsystem_of("sim.arrival") == "arrival"
        assert subsystem_of("sim.fairshare") == "fairshare"
        assert subsystem_of("sim.te_plan") == "te_plan"
        assert subsystem_of("sim.te_install") == "installer"
        # Rule deletes after a completion or a reroute are their own layer.
        assert subsystem_of("sim.rule_removal") == "rule_removal"

    def test_unknown_labels_map_to_themselves(self):
        # New instrumentation points surface by name, never as "other".
        assert subsystem_of("somewhere.else") == "somewhere.else"


class _FakeEvent:
    def __init__(self, kind):
        self.kind = kind


class TestProfilerSegments:
    def test_segment_counts_and_attribution(self):
        profiler = Profiler(meta={"scenario": "unit"})
        profiler.begin()
        profiler.on_dispatch(_FakeEvent("epoch"))
        profiler.on_dispatch(_FakeEvent("epoch"))
        profiler.mark("sim.arrival")
        profiler.on_dispatch(_FakeEvent("flowmod-arrive"))
        report = profiler.finish()

        assert report.segments["event:epoch"][0] == 2
        assert report.segments["sim.arrival"][0] == 1
        assert report.segments["event:flowmod-arrive"][0] == 1
        assert report.meta == {"scenario": "unit"}
        assert profiler.events_seen == 3
        # Everything between begin() and the first cut is "setup" and
        # excluded from attribution; everything after the first dispatch
        # is attributed.
        assert 0.0 < report.attributed_seconds <= report.total_seconds
        attributed = sum(
            seconds
            for label, (_count, seconds) in report.segments.items()
            if label not in UNATTRIBUTED_LABELS
        )
        assert report.attributed_seconds == pytest.approx(attributed)

    def test_finish_is_idempotent(self):
        profiler = Profiler()
        profiler.begin()
        profiler.on_dispatch(_FakeEvent("epoch"))
        first = profiler.finish()
        second = profiler.finish()
        assert first.total_seconds == second.total_seconds
        assert first.segments == second.segments

    def test_finish_without_begin(self):
        report = Profiler().finish()
        assert report.total_seconds == 0.0
        assert report.attributed_fraction == 0.0

    def test_report_round_trips_to_json(self):
        profiler = Profiler()
        profiler.begin()
        profiler.on_dispatch(_FakeEvent("epoch"))
        report = profiler.finish()
        payload = json.loads(json.dumps(report.to_dict()))
        assert "event:epoch" in payload["segments"]
        assert payload["subsystems"]
        assert 0.0 <= payload["attributed_fraction"] <= 1.0

    def test_collapsed_stacks_carry_subsystem_prefix(self):
        profiler = Profiler()
        profiler.begin()
        for _ in range(50):
            profiler.on_dispatch(_FakeEvent("epoch"))
        report = profiler.finish()
        lines = report.collapsed()
        assert any(line.startswith("fairshare;event:epoch ") for line in lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0

    def test_render_mentions_subsystems(self):
        profiler = Profiler()
        profiler.begin()
        profiler.on_dispatch(_FakeEvent("epoch"))
        text = profiler.finish().render()
        assert "attributed" in text
        assert "fairshare" in text


class TestWatchTracer:
    def test_span_self_and_cumulative_nesting(self):
        tracer = RecordingTracer()
        profiler = Profiler().watch_tracer(tracer)
        profiler.begin()
        outer = tracer.start_span("flowmod", 0.0)
        inner = tracer.start_span("agent.action", 0.1)
        inner.finish(0.2)
        outer.finish(0.3)
        report = profiler.finish()

        assert report.spans["flowmod"].count == 1
        assert report.spans["agent.action"].count == 1
        # The child's wall time is subtracted from the parent's self time.
        flowmod = report.spans["flowmod"]
        action = report.spans["agent.action"]
        assert flowmod.cumulative_seconds >= flowmod.self_seconds
        assert flowmod.cumulative_seconds == pytest.approx(
            flowmod.self_seconds + action.cumulative_seconds, abs=1e-3
        )

    def test_recorded_trace_is_unchanged_by_profiling(self):
        plain = RecordingTracer()
        span = plain.start_span("flowmod", 0.0, switch="s1")
        span.finish(0.5)
        plain.event("hermes.gatekeeper", 0.1, latency=1e-4)

        watched = RecordingTracer()
        Profiler().watch_tracer(watched).begin()
        span = watched.start_span("flowmod", 0.0, switch="s1")
        span.finish(0.5)
        watched.event("hermes.gatekeeper", 0.1, latency=1e-4)

        assert plain.records == watched.records

    def test_double_finish_counts_once(self):
        tracer = RecordingTracer()
        profiler = Profiler().watch_tracer(tracer)
        profiler.begin()
        span = tracer.start_span("flowmod", 0.0)
        span.finish(0.1)
        span.finish(0.2)  # idempotent at the tracer; profiler must agree
        report = profiler.finish()
        assert report.spans["flowmod"].count == 1
        assert len(tracer.records) == 1

    def test_scheduler_seam_attaches_and_detaches(self):
        from repro.engine import EventScheduler

        scheduler = EventScheduler()
        assert scheduler.profiler is None
        profiler = Profiler().watch_scheduler(scheduler)
        assert scheduler.profiler is profiler
        scheduler.schedule(0.0, "epoch")
        profiler.begin()
        scheduler.pop()
        assert profiler.events_seen == 1
        scheduler.attach_profiler(None)
        assert scheduler.profiler is None
        scheduler.schedule(0.1, "epoch")
        scheduler.pop()
        assert profiler.events_seen == 1


# ---------------------------------------------------------------------------
# Cross-process parity: profiling must not perturb the run
# ---------------------------------------------------------------------------

_PARITY_SCRIPT = r"""
import hashlib
import json
import sys

from repro.experiments.common import canned_scenario
from repro.obs import RecordingTracer, trace_lines, use_tracer
from repro.obs.perf import Profiler

mode = sys.argv[1]
tracer = RecordingTracer(meta={"scenario": "engine-parity"})
with use_tracer(tracer):
    simulation, _meta = canned_scenario("chaos")
    profiler = None
    if mode == "on":
        profiler = Profiler()
        profiler.watch_simulation(simulation)
        profiler.watch_tracer(tracer)
        profiler.begin()
    metrics = simulation.run()
fraction = 0.0
if profiler is not None:
    fraction = profiler.finish().attributed_fraction
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
trace_payload = "\n".join(trace_lines(tracer)).encode()
print(json.dumps({
    "result": hashlib.sha256(payload).hexdigest(),
    "trace": hashlib.sha256(trace_payload).hexdigest(),
    "attributed_fraction": fraction,
}))
"""


def _run_parity(mode: str) -> dict:
    env = dict(os.environ)
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-c", _PARITY_SCRIPT, mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout.strip())


class TestProfilerParity:
    """Profiler-on and profiler-off runs in fresh interpreters."""

    def test_profiled_chaos_run_matches_the_pinned_seed(self):
        on = _run_parity("on")
        off = _run_parity("off")
        # The uninstrumented run still reproduces the seed captures...
        assert off["result"] == CHAOS_RESULT_DIGEST
        assert off["trace"] == CHAOS_TRACE_DIGEST
        # ...and attaching the profiler changes neither metrics nor trace.
        assert on["result"] == off["result"]
        assert on["trace"] == off["trace"]
        # The profiled run attributes nearly all of its wall time.
        assert on["attributed_fraction"] >= 0.95


class TestAttributionOnFig08:
    def test_fig08_attribution_meets_the_gate(self):
        # The acceptance scenario: the ISP workload with real installs.
        from repro.experiments.common import canned_scenario
        from repro.obs import use_tracer
        from repro.obs.perf import profile_simulation

        tracer = RecordingTracer()
        with use_tracer(tracer):
            simulation, meta = canned_scenario("fig08")
            report = profile_simulation(simulation, tracer=tracer, meta=meta)
        assert report.attributed_fraction >= 0.95
        assert report.spans, "span stream produced no wall-clock costs"
        assert any(
            label.startswith("event:") for label in report.segments
        )
        # TE planning is reported as its own layer, not as fair share,
        # and Hermes rule deletes as their own layer, not as completion.
        assert report.subsystems.get("te_plan", 0.0) > 0.0
        assert report.subsystems.get("rule_removal", 0.0) > 0.0
        # Every write is verified; with no faults injected none is
        # re-issued.
        assert all(
            agent.installer.rule_manager.reissued_writes == 0
            for agent in simulation.controller.agents.values()
        )


# ---------------------------------------------------------------------------
# Guarantee burn
# ---------------------------------------------------------------------------

def _breakdown(start, total, channel=0.0, span_id=None):
    tcam = max(0.0, total - channel)
    return FlowModBreakdown(
        span_id=span_id if span_id is not None else int(start * 1000),
        switch="s1",
        command="add",
        start=start,
        end=start + total,
        gatekeeper=0.0,
        queue=0.0,
        tcam=tcam,
        channel=channel,
    )


class TestGuaranteeBurn:
    def test_rejects_non_positive_guarantee(self):
        with pytest.raises(ValueError):
            guarantee_burn([], guarantee=0.0)
        with pytest.raises(ValueError):
            guarantee_burn([], guarantee=-1.0)

    def test_empty_source(self):
        report = guarantee_burn([])
        assert report.installed == 0
        assert report.violations == 0
        assert report.violation_rate == 0.0
        assert report.windows == []
        assert "0 installed FlowMods" in report.render()

    def test_compliance_split(self):
        items = [
            _breakdown(0.0, 1e-3),
            _breakdown(1.0, 4e-3),
            _breakdown(2.0, 8e-3),  # violates the 5 ms default
        ]
        report = guarantee_burn(items)
        assert report.guarantee_seconds == DEFAULT_GUARANTEE_SECONDS
        assert report.installed == 3
        assert report.compliant == 2
        assert report.violations == 1
        assert report.violation_rate == pytest.approx(1 / 3)
        assert report.burn_max == pytest.approx(8e-3 / 5e-3)

    def test_violation_windows_merge_by_gap(self):
        # Two violations 10 ms apart merge; one 2 s later stands alone.
        items = [
            _breakdown(1.000, 8e-3),
            _breakdown(1.018, 9e-3),
            _breakdown(3.000, 7e-3),
        ]
        report = guarantee_burn(items, window_gap=0.05)
        assert len(report.windows) == 2
        first, second = report.windows
        assert first.count == 2
        assert first.worst_seconds == pytest.approx(9e-3)
        assert second.count == 1
        # A tighter gap splits the burst.
        report = guarantee_burn(items, window_gap=0.005)
        assert len(report.windows) == 3

    def test_window_attributes_dominant_layer(self):
        items = [_breakdown(0.0, 8e-3, channel=6e-3)]
        report = guarantee_burn(items)
        assert report.windows[0].worst_layer == "channel"

    def test_layer_budget_attribution(self):
        items = [_breakdown(0.0, 4e-3, channel=3e-3)]
        report = guarantee_burn(items)
        channel = report.layers["channel"]
        assert channel.mean_seconds == pytest.approx(3e-3)
        assert channel.mean_budget_share == pytest.approx(3e-3 / 5e-3)
        assert channel.share_of_latency == pytest.approx(3 / 4)
        assert report.layers["gatekeeper"].mean_seconds == 0.0

    def test_accepts_raw_trace_records(self):
        # A flowmod span wrapping one agent.action: the summarizer path.
        records = [
            {
                "type": "span", "id": 2, "parent": 1, "name": "agent.action",
                "cat": "switch", "start": 0.001, "end": 0.003,
                "attrs": {"switch": "s1", "command": "add",
                          "queue_delay": 0.0, "exec_latency": 0.002},
            },
            {
                "type": "span", "id": 1, "parent": 0, "name": "flowmod",
                "cat": "channel", "start": 0.0, "end": 0.010,
                "attrs": {"attempts": 1, "delivered": True},
            },
        ]
        report = guarantee_burn(records)
        assert report.installed == 1
        item = report.worst[0]
        assert item.tcam == pytest.approx(0.002)
        assert item.channel == pytest.approx(0.008)

    def test_json_round_trip(self):
        items = [_breakdown(0.0, 8e-3)]
        payload = json.loads(json.dumps(guarantee_burn(items).to_dict()))
        assert payload["violations"] == 1
        assert payload["windows"][0]["count"] == 1
        assert payload["worst"][0]["burn"] == pytest.approx(1.6)


# ---------------------------------------------------------------------------
# The hermes-bench/1 artifact layer
# ---------------------------------------------------------------------------

class TestBenchArtifacts:
    def test_direction_inference(self):
        assert metric_direction("run_seconds") == "lower"
        assert metric_direction("peak_memory_mib") == "lower"
        assert metric_direction("dispatch_speedup") == "higher"
        assert metric_direction("events_per_s") == "higher"
        assert metric_direction("Throughput") == "higher"

    def test_artifact_shape_and_validation(self):
        document = bench_artifact("unit", {"run_seconds": 1.5})
        assert document["format"] == BENCH_FORMAT
        assert document["suite"] == "unit"
        assert document["headline"] == {"run_seconds": 1.5}
        assert set(machine_fingerprint()) <= set(document["fingerprint"])
        with pytest.raises(ValueError):
            bench_artifact("", {"run_seconds": 1.0})
        with pytest.raises(ValueError):
            bench_artifact("unit", {"ok": True})
        with pytest.raises(ValueError):
            bench_artifact("unit", {"name": "fast"})

    def test_write_load_history_index(self, tmp_path):
        results = str(tmp_path)
        path = write_bench_artifact(
            "unit", {"run_seconds": 1.5}, payload={"rows": [1, 2]},
            results_dir=results,
        )
        assert path == os.path.join(results, "BENCH_unit.json")
        document = load_artifact(path)
        assert document["payload"] == {"rows": [1, 2]}

        write_bench_artifact("unit", {"run_seconds": 1.4}, results_dir=results)
        points = read_history(results)
        assert [p["suite"] for p in points] == ["unit", "unit"]
        assert points[-1]["headline"]["run_seconds"] == 1.4

        index = open(os.path.join(results, "INDEX.md")).read()
        assert "| unit |" in index
        assert "BENCH_unit.json" in index
        assert "run_seconds=1.4" in index

    def test_index_skips_foreign_json(self, tmp_path):
        results = str(tmp_path)
        with open(os.path.join(results, "BENCH_legacy.json"), "w") as handle:
            json.dump({"format": "hermes-engine-bench/1"}, handle)
        write_index(results)
        index = open(os.path.join(results, "INDEX.md")).read()
        assert "legacy" not in index

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_env_override_directs_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMES_BENCH_DIR", str(tmp_path))
        write_bench_artifact("unit", {"run_seconds": 1.0})
        assert (tmp_path / "BENCH_unit.json").exists()
        assert (tmp_path / "perf_history.jsonl").exists()
        assert (tmp_path / "INDEX.md").exists()

    def test_history_point_is_compact(self, tmp_path):
        document = bench_artifact("unit", {"run_seconds": 1.0})
        append_history(document, str(tmp_path))
        point = read_history(str(tmp_path))[0]
        assert set(point) == {
            "suite", "date", "unix_time", "commit", "cpu_count",
            "python", "headline",
        }


class TestBenchCompare:
    def _doc(self, headline, suite="unit"):
        return bench_artifact(suite, headline)

    def test_regression_lower_is_better(self):
        deltas, _ = compare(
            self._doc({"run_seconds": 1.0}), self._doc({"run_seconds": 1.5})
        )
        assert deltas[0].regressed
        deltas, _ = compare(
            self._doc({"run_seconds": 1.0}), self._doc({"run_seconds": 1.1})
        )
        assert not deltas[0].regressed

    def test_regression_higher_is_better(self):
        deltas, _ = compare(
            self._doc({"speedup": 10.0}), self._doc({"speedup": 5.0})
        )
        assert deltas[0].regressed
        deltas, _ = compare(
            self._doc({"speedup": 10.0}), self._doc({"speedup": 9.5})
        )
        assert not deltas[0].regressed

    def test_improvement_never_regresses(self):
        deltas, _ = compare(
            self._doc({"run_seconds": 1.0}), self._doc({"run_seconds": 0.2})
        )
        assert not deltas[0].regressed

    def test_one_sided_metrics_become_notes(self):
        _deltas, notes = compare(
            self._doc({"run_seconds": 1.0, "old_metric": 2.0}),
            self._doc({"run_seconds": 1.0, "new_metric": 3.0}),
        )
        assert any("old_metric" in note for note in notes)
        assert any("new_metric" in note for note in notes)

    def test_suite_mismatch_is_noted(self):
        _deltas, notes = compare(
            self._doc({"run_seconds": 1.0}, suite="a"),
            self._doc({"run_seconds": 1.0}, suite="b"),
        )
        assert any("different suites" in note for note in notes)

    def test_zero_baseline_guard(self):
        deltas, _ = compare(
            self._doc({"run_seconds": 0.0}), self._doc({"run_seconds": 0.0})
        )
        assert deltas[0].ratio == 1.0
        assert not deltas[0].regressed

    def test_threshold_validation_and_rendering(self):
        with pytest.raises(ValueError):
            compare(self._doc({"a": 1.0}), self._doc({"a": 1.0}), threshold=-1)
        delta = HeadlineDelta(
            metric="run_seconds", direction="lower",
            a=1.0, b=2.0, ratio=2.0, regressed=True,
        )
        assert "REGRESSED" in str(delta)

    def test_planted_regression_fixtures_fail_comparison(self):
        baseline = load_artifact(os.path.join(FIXTURES, "bench_baseline.json"))
        regressed = load_artifact(
            os.path.join(FIXTURES, "bench_regressed.json")
        )
        deltas, _ = compare(baseline, regressed)
        assert all(delta.regressed for delta in deltas)
        # The same pair under a huge threshold passes.
        deltas, _ = compare(baseline, regressed, threshold=5.0)
        assert not any(delta.regressed for delta in deltas)


# ---------------------------------------------------------------------------
# Flamegraph folding
# ---------------------------------------------------------------------------

class TestTraceCollapsed:
    def test_nested_spans_fold_with_self_time(self):
        records = [
            {"type": "span", "id": 1, "parent": 0, "name": "flowmod",
             "start": 0.0, "end": 0.010, "attrs": {}},
            {"type": "span", "id": 2, "parent": 1, "name": "agent.action",
             "start": 0.002, "end": 0.006, "attrs": {}},
            {"type": "event", "name": "noise", "time": 0.0, "span": 1,
             "attrs": {}},
        ]
        lines = trace_collapsed(records)
        assert "flowmod 6000" in lines  # 10 ms minus the 4 ms child
        assert "flowmod;agent.action 4000" in lines

    def test_identical_stacks_merge(self):
        records = [
            {"type": "span", "id": i, "parent": 0, "name": "flowmod",
             "start": 0.0, "end": 0.001, "attrs": {}}
            for i in (1, 2, 3)
        ]
        assert trace_collapsed(records) == ["flowmod 3000"]

    def test_zero_weight_spans_are_dropped(self):
        records = [
            {"type": "span", "id": 1, "parent": 0, "name": "instant",
             "start": 1.0, "end": 1.0, "attrs": {}},
        ]
        assert trace_collapsed(records) == []


# ---------------------------------------------------------------------------
# The perf CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def perf_trace(tmp_path_factory):
    """One small traced chaos scenario written as hermes-trace/1."""
    from repro.experiments.common import canned_scenario
    from repro.obs import RecordingTracer, use_tracer, write_trace

    tracer = RecordingTracer(meta={"scenario": "perf-cli"})
    with use_tracer(tracer):
        simulation, _meta = canned_scenario("demo")
        simulation.run()
    path = tmp_path_factory.mktemp("perf-cli") / "trace.jsonl"
    write_trace(tracer, str(path))
    return str(path)


class TestPerfCli:
    def test_report_text_and_json(self, perf_trace, capsys):
        from repro.obs.__main__ import main

        assert main(["perf", "report", perf_trace]) == 0
        out = capsys.readouterr().out
        assert "guarantee-burn ledger" in out

        assert main(["perf", "report", perf_trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "violation_rate" in payload
        assert set(payload["layers"]) == {
            "gatekeeper", "queue", "tcam", "channel",
        }

    def test_flamegraph_to_file(self, perf_trace, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "flame.folded"
        assert main(["perf", "flamegraph", perf_trace, "--out", str(out)]) == 0
        capsys.readouterr()
        for line in out.read_text().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) > 0

    def test_bench_compare_exit_codes(self, capsys):
        from repro.obs.__main__ import main

        baseline = os.path.join(FIXTURES, "bench_baseline.json")
        regressed = os.path.join(FIXTURES, "bench_regressed.json")
        assert main(["perf", "bench-compare", baseline, baseline]) == 0
        assert "ok:" in capsys.readouterr().out
        # The planted regression must fail the gate.
        assert main(["perf", "bench-compare", baseline, regressed]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # ...and pass under an explicitly huge threshold.
        assert main(
            ["perf", "bench-compare", baseline, regressed,
             "--threshold", "5.0"]
        ) == 0

    def test_index_command(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        with open(tmp_path / "BENCH_unit.json", "w") as handle:
            json.dump(bench_artifact("unit", {"run_seconds": 1.0}), handle)
        assert main(["perf", "index", str(tmp_path)]) == 0
        capsys.readouterr()
        assert "| unit |" in (tmp_path / "INDEX.md").read_text()
