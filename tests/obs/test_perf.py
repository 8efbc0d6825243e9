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
from collections import Counter

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
from repro.obs.perf.profiler import ROOT_LAYER, Profiler, layer_entry_points
from repro.obs.perf.wallclock import wallclock
from repro.obs.summary import FlowModBreakdown, flowmod_breakdowns

# The chaos scenario's pinned digests: the profiler-off subprocess must
# reproduce them, and profiler-on must match profiler-off byte-for-byte.
from ..engine.test_parity import CHAOS_RESULT_DIGEST, CHAOS_TRACE_DIGEST

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


# ---------------------------------------------------------------------------
# The profile table
# ---------------------------------------------------------------------------

def _spin(seconds=2e-4):
    """Burn a little wall time, so a stack's self time is never zero."""
    deadline = wallclock() + seconds
    while wallclock() < deadline:
        pass


class TestProfilerSegments:
    """Stacks of layer names and their self times, from ``Profiler.call``."""

    @staticmethod
    def _profile():
        profiler = Profiler(meta={"scenario": "unit"})

        def agent():
            _spin()
            profiler.call("tcam.insert", _spin)

        def loop():
            _spin()
            profiler.call("kernel", _spin)
            profiler.call("kernel", _spin)
            profiler.call("agent", agent)

        profiler.call(ROOT_LAYER, loop)
        return profiler.finish()

    def test_stack_counts_and_attribution(self):
        report = self._profile()
        assert set(report.stacks) == {
            ("loop",),
            ("loop", "kernel"),
            ("loop", "agent"),
            ("loop", "agent", "tcam.insert"),
        }
        assert report.stacks[("loop", "kernel")].calls == 2
        assert report.stacks[("loop",)].calls == 1
        assert report.meta == {"scenario": "unit"}
        # Every second under the root lands in exactly one stack.
        assert all(cost.self_seconds > 0 for cost in report.stacks.values())
        accounted = sum(cost.self_seconds for cost in report.stacks.values())
        assert accounted == pytest.approx(report.total_seconds, rel=1e-9)
        layers = report.layers
        assert layers["kernel"].calls == 2
        assert layers["tcam.insert"].self_seconds == pytest.approx(
            report.stacks[("loop", "agent", "tcam.insert")].self_seconds
        )

    def test_finish_is_idempotent(self):
        profiler = Profiler()
        profiler.call(ROOT_LAYER, _spin)
        first = profiler.finish()
        second = profiler.finish()
        assert first.total_seconds == second.total_seconds
        assert first.stacks == second.stacks

    def test_finish_without_begin(self):
        report = Profiler().finish()
        assert report.total_seconds == 0.0
        assert report.stacks == {}
        assert report.layers == {}

    def test_report_round_trips_to_json(self):
        payload = json.loads(json.dumps(self._profile().to_dict()))
        assert set(payload["layers"]) == {
            "loop", "kernel", "agent", "tcam.insert"
        }
        assert payload["layers"]["kernel"]["calls"] == 2
        assert "loop;agent;tcam.insert" in payload["stacks"]
        assert payload["total_seconds"] > 0

    def test_collapsed_stacks_start_at_the_root(self):
        lines = self._profile().collapsed()
        stacks = [line.rsplit(" ", 1)[0] for line in lines]
        assert "loop;agent;tcam.insert" in stacks
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack.split(";")[0] == ROOT_LAYER
            assert int(weight) > 0

    def test_render_lists_layers(self):
        text = self._profile().render()
        assert "layer self times sum to" in text
        assert "tcam.insert" in text
        assert "loop;agent;tcam.insert" in text

    def test_run_collects_garbage_before_the_run(self, monkeypatch):
        import gc

        order = []

        def collect(*args):
            order.append("collect")
            return 0

        class Simulation:
            def run(self):
                order.append("run")
                return "metrics"

        monkeypatch.setattr(gc, "collect", collect)
        profiler = Profiler().begin()
        try:
            assert profiler.run(Simulation()) == "metrics"
        finally:
            profiler.finish()
        assert order == ["collect", "run"]


# ---------------------------------------------------------------------------
# The layer entry points
# ---------------------------------------------------------------------------

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


class TestProfilerWraps:
    def test_agent_submit_nests_down_to_tcam_insert(self):
        from repro.core import HermesInstaller
        from repro.switchsim import FlowMod, SwitchAgent
        from repro.tcam import Action, Rule, pica8_p3290

        agent = SwitchAgent(HermesInstaller(pica8_p3290()), name="s1")
        profiler = Profiler().begin()
        try:
            for index in range(40):
                rule = Rule.from_prefix(
                    f"10.0.{index}.0/24", 5, Action.output(1)
                )
                agent.submit(FlowMod.add(rule), at_time=index * 1e-3)
        finally:
            report = profiler.finish()
        inserts = [
            stack
            for stack in report.stacks
            if stack[0] == "agent" and stack[-1] == "tcam.insert"
        ]
        assert inserts, sorted(report.stacks)
        assert all("hermes" in stack for stack in inserts)
        roots = [stack for stack in report.stacks if len(stack) == 1]
        assert roots == [("agent",)]
        assert report.stacks[("agent",)].calls == 40
        layers = report.layers
        accounted = sum(cost.self_seconds for cost in layers.values())
        assert accounted == pytest.approx(report.total_seconds, rel=0.01)
        assert layers["tcam.insert"].calls >= 40

    def test_reentry_counts_once_on_canned_chaos(self):
        # ``send`` calls ``send_batch``, ``submit`` calls ``submit_batch``:
        # a layer calling itself is one call, not a nested one.
        from repro.experiments.common import canned_scenario

        simulation, meta = canned_scenario("chaos")
        profiler = Profiler(meta=meta).begin()
        try:
            profiler.run(simulation)
        finally:
            report = profiler.finish()
        sends = sum(
            channel.stats.sends
            for channel in simulation.controller.channels.values()
        )
        assert sends > 0
        assert report.layers["channel"].calls == sends
        repeated = [
            stack
            for stack in report.stacks
            if any(outer == inner for outer, inner in zip(stack, stack[1:]))
        ]
        assert not repeated, repeated

    def test_finish_restores_every_entry_point(self):
        from repro.switchsim.channel import Channel, ResilientChannel

        points = layer_entry_points()
        before = [
            (owner, attr, vars(owner).get(attr), getattr(owner, attr))
            for owner, attr, _layer in points
        ]
        assert "send" not in vars(ResilientChannel)  # inherited
        profiler = Profiler().begin()
        assert "send" in vars(ResilientChannel)
        assert all(
            getattr(owner, attr) is not original
            for owner, attr, _own, original in before
        )
        profiler.finish()
        for owner, attr, own, original in before:
            assert vars(owner).get(attr) is own, (owner, attr)
            assert getattr(owner, attr) is original, (owner, attr)
        assert "send" not in vars(ResilientChannel)
        assert ResilientChannel.send is Channel.send
        with pytest.raises(RuntimeError):
            profiler.begin()

    def test_layer_names_are_benchmark_layers(self):
        path = os.path.join(REPO_ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as handle:
            per_layer = {
                entry["name"] for entry in json.load(handle)["per_layer"]
            }
        names = {layer for _owner, _attr, layer in layer_entry_points()}
        missing = sorted(
            name
            for name in names | {ROOT_LAYER}
            if f"{name}.self_s" not in per_layer
        )
        assert not missing, f"layers with no per_layer self_s entry: {missing}"

    def test_entry_points_match_the_benchmark_layertrace(self):
        import importlib.util

        path = os.path.join(REPO_ROOT, "hermesbench", "layertrace.py")
        spec = importlib.util.spec_from_file_location("layertrace", path)
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)

        class Recorder:
            def __init__(self):
                self.wrapped = []

            def wrap(self, owner, attr, key, hook=None):
                self.wrapped.append((owner, attr, key))

        recorder = Recorder()
        layertrace.install_layer_wraps(recorder)
        assert Counter(recorder.wrapped) == Counter(layer_entry_points())


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
accounted = 0.0
with use_tracer(tracer):
    simulation, _meta = canned_scenario("chaos")
    if mode == "on":
        profiler = Profiler().begin()
        try:
            metrics = profiler.run(simulation)
        finally:
            report = profiler.finish()
        accounted = sum(
            cost.self_seconds for cost in report.layers.values()
        ) / report.total_seconds
    else:
        metrics = simulation.run()
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
trace_payload = "\n".join(trace_lines(tracer)).encode()
print(json.dumps({
    "result": hashlib.sha256(payload).hexdigest(),
    "trace": hashlib.sha256(trace_payload).hexdigest(),
    "accounted_fraction": accounted,
}))
"""


def _run_parity(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
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
        # ...and profiling changes neither metrics nor trace.
        assert on["result"] == off["result"]
        assert on["trace"] == off["trace"]
        # The layer self times account for the profiled run's wall time.
        assert on["accounted_fraction"] == pytest.approx(1.0, rel=0.01)


class TestAttributionOnFig08:
    def test_fig08_attribution_meets_the_gate(self, monkeypatch):
        # The acceptance scenario: the ISP workload with real installs,
        # untraced as `perf profile` runs it.
        import gc

        from repro.experiments.common import canned_scenario

        # Profiler.run collects before it starts the run; time that
        # collection, which lies outside the profile by design.
        collecting = []
        collect = gc.collect

        def timed_collect(*args):
            began = wallclock()
            try:
                return collect(*args)
            finally:
                collecting.append(wallclock() - began)

        monkeypatch.setattr(gc, "collect", timed_collect)
        simulation, meta = canned_scenario("fig08")
        profiler = Profiler(meta=meta).begin()
        start = wallclock()
        try:
            profiler.run(simulation)
            wall = wallclock() - start - sum(collecting)
        finally:
            report = profiler.finish()
        assert len(collecting) == 1
        layers = report.layers
        # The layer self times add up to the run's wall time.
        accounted = sum(cost.self_seconds for cost in layers.values())
        assert accounted == pytest.approx(wall, rel=0.01)
        # TE planning and the controller are their own layers; fair share
        # is FlowStore.recompute alone, called straight from the loop.
        assert layers["te_plan"].self_seconds > 0.0
        assert layers["controller"].self_seconds > 0.0
        assert [stack for stack in report.stacks if "fairshare" in stack] == [
            ("loop", "fairshare")
        ]
        # Every write is verified; with no faults injected none is
        # re-issued.
        assert all(
            agent.installer.rule_manager.reissued_writes == 0
            for agent in simulation.controller.agents.values()
        )


# ---------------------------------------------------------------------------
# Guarantee burn
# ---------------------------------------------------------------------------

def _breakdown(start, total, channel=0.0):
    tcam = max(0.0, total - channel)
    return FlowModBreakdown(
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
        assert report.actions == 0
        assert report.violations == 0
        assert report.violation_rate == 0.0
        assert report.windows == []
        assert "0 control actions (none)" in report.render()

    def test_compliance_split(self):
        items = [
            _breakdown(0.0, 1e-3),
            _breakdown(1.0, 4e-3),
            _breakdown(2.0, 8e-3),  # violates the 5 ms default
        ]
        report = guarantee_burn(items)
        assert report.guarantee_seconds == DEFAULT_GUARANTEE_SECONDS
        assert report.actions == 3
        assert report.commands == {"add": 3}
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

    def test_scores_breakdowns_read_from_a_trace(self):
        # The agent's nest, flowmod -> agent.batch -> agent.action, each
        # span carrying the stages its component records.
        records = [
            {
                "type": "span", "id": 3, "parent": 2, "name": "agent.action",
                "cat": "agent", "start": 0.001, "end": 0.003,
                "attrs": {"switch": "s1", "command": "add", "gatekeeper": 0.0,
                          "queue_delay": 0.0, "exec_latency": 0.002},
            },
            {
                "type": "span", "id": 2, "parent": 1, "name": "agent.batch",
                "cat": "agent", "start": 0.001, "end": 0.003,
                "attrs": {"switch": "s1", "size": 1},
            },
            {
                "type": "span", "id": 1, "parent": 0, "name": "flowmod",
                "cat": "channel", "start": 0.0, "end": 0.010,
                "attrs": {"attempts": 1, "delivered": True, "channel": 0.008},
            },
        ]
        report = guarantee_burn(flowmod_breakdowns(records))
        assert report.actions == 1
        item = report.worst[0]
        assert item.tcam == pytest.approx(0.002)
        assert item.channel == pytest.approx(0.008)

    def test_json_round_trip(self):
        items = [_breakdown(0.0, 8e-3)]
        payload = json.loads(json.dumps(guarantee_burn(items).to_dict()))
        assert payload["violations"] == 1
        assert payload["windows"][0]["count"] == 1
        assert payload["worst"][0]["burn"] == pytest.approx(1.6)
        assert payload["commands"] == {"add": 1}


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
            "usable_cores", "python", "headline",
        }

    def test_history_point_carries_usable_cores(self, tmp_path):
        """A history row is as honest about cores as its artifact: it
        copies ``usable_cores``, and an older artifact without one reads None."""
        document = bench_artifact("unit", {"run_seconds": 1.0})
        append_history(document, str(tmp_path))
        older = bench_artifact("unit", {"run_seconds": 1.0})
        del older["fingerprint"]["usable_cores"]
        append_history(older, str(tmp_path))
        points = read_history(str(tmp_path))
        assert points[0]["usable_cores"] == document["fingerprint"]["usable_cores"]
        assert points[1]["usable_cores"] is None


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

    def test_machine_mismatch_is_noted(self):
        baseline = self._doc({"run_seconds": 1.0})
        same = self._doc({"run_seconds": 1.0})
        _deltas, notes = compare(baseline, same)
        assert not any("machines differ" in note for note in notes)
        ours = baseline["fingerprint"]
        for name, value in (
            ("cpu_count", ours["cpu_count"] + 1),
            ("usable_cores", (ours["usable_cores"] or 0) + 1),
            ("python", ours["python"] + "+other"),
        ):
            other = self._doc({"run_seconds": 1.0})
            other["fingerprint"][name] = value
            _deltas, notes = compare(baseline, other)
            assert [note for note in notes if "machines differ" in note] == [
                f"machines differ in {name}: {ours[name]!r} vs {value!r}"
            ]

    def test_fingerprint_records_usable_cores(self):
        fingerprint = machine_fingerprint()
        usable = fingerprint["usable_cores"]
        if hasattr(os, "sched_getaffinity"):
            assert usable == len(os.sched_getaffinity(0))
            assert 1 <= usable <= fingerprint["cpu_count"]
        else:
            assert usable is None

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

class TestPerfCli:
    def test_flamegraph_to_file(self, faulted_run, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "flame.folded"
        assert main(
            ["perf", "flamegraph", faulted_run.path, "--out", str(out)]
        ) == 0
        capsys.readouterr()
        for line in out.read_text().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) > 0

    def test_profile_runs_untraced_and_scores_the_run(self, tmp_path):
        # A fresh interpreter, so flow ids (ECMP hashes on them) and hence
        # the ledger match a standalone `perf profile fig08`; any tracer
        # built fails the run.
        script = (
            "import sys\n"
            "import repro.obs.tracer as tracer\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('perf profile built a tracer')\n"
            "tracer.RecordingTracer.__init__ = refuse\n"
            "from repro.obs.__main__ import main\n"
            "sys.exit(main(['perf', 'profile', 'fig08', '--out', sys.argv[1]]))\n"
        )
        out = tmp_path / "perf.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        # Every control action counts, and the label says which commands.
        assert (
            "2454 control actions (1227 add, 1227 delete), 2433 compliant, "
            "21 violations (0.86%)"
        ) in result.stdout
        burn = json.loads(out.read_text())["burn"]
        assert burn["actions"] == 2454
        assert burn["commands"] == {"add": 1227, "delete": 1227}
        assert burn["violations"] == 21
        assert burn["burn_p99"] == pytest.approx(0.979, abs=5e-4)
        assert burn["layers"]["queue"]["share_of_latency"] == pytest.approx(
            0.713, abs=5e-4
        )

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["perf", "profile", "nosuch"], "nosuch"),
            (["scenario", "nosuch", "--out-dir", "unused"], "nosuch"),
            (["perf", "flamegraph", "MISSING.jsonl"], "MISSING.jsonl"),
            (["summary", "MISSING.jsonl"], "MISSING.jsonl"),
            (["diff", "MISSING.jsonl", "MISSING.jsonl"], "MISSING.jsonl"),
            (["perf", "flamegraph", FIXTURES], FIXTURES),
        ],
    )
    def test_bad_input_is_a_usage_error(self, argv, bad, capsys):
        # argparse and read_trace_arg both exit 2, naming the input on stderr.
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert bad in capsys.readouterr().err

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
