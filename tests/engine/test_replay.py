"""End-to-end tests for trace-driven replay (repro.engine.replay).

A traced simulation run is recorded, written as ``hermes-trace/1``,
reconstructed into a timed workload, and re-executed on the kernel clock.
The replayed trace must diff cleanly against the original with ``python -m
repro.obs diff``, and the ``python -m repro.engine replay`` CLI must close
the same loop from the command line.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import make_installer
from repro.engine.replay import (
    ReplayAction,
    actions_from_records,
    reconstruct_workload,
    replay_file,
    replay_records,
)
from repro.experiments.common import default_hermes_config
from repro.obs import RecordingTracer, read_trace, use_tracer, write_trace
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs


def _record_run(tmp_path):
    """Run a small traced hermes simulation and write its trace."""
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    flows = flows_of(
        generate_jobs(
            hosts(graph),
            job_count=4,
            arrival_rate=6.0,
            rng=np.random.default_rng(23),
        )
    )
    config = SimulationConfig(
        te=TeAppConfig(epoch=0.25),
        baseline_occupancy=0,
        max_time=2.0,
        # Reactive routing punts every arrival to the controller, so the
        # trace records an agent.action span per installed FlowMod.
        routing_mode="reactive",
    )
    timing = get_switch_model("pica8-p3290")
    hermes_config = default_hermes_config()
    factory = lambda name: make_installer(
        "hermes", timing, hermes_config=hermes_config
    )
    tracer = RecordingTracer(meta={"scenario": "replay-test"})
    with use_tracer(tracer):
        Simulation(graph, flows, factory, config).run()
    trace_path = str(tmp_path / "original.jsonl")
    write_trace(tracer, trace_path)
    return trace_path


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    return _record_run(tmp_path_factory.mktemp("replay"))


class TestWorkloadReconstruction:
    def test_actions_are_time_ordered_agent_spans(self, recorded_trace):
        _, records = read_trace(recorded_trace)
        actions = actions_from_records(records)
        assert actions, "the traced run must have recorded agent actions"
        assert all(isinstance(action, ReplayAction) for action in actions)
        times = [action.time for action in actions]
        assert times == sorted(times)
        assert {action.command for action in actions} <= {
            "add",
            "modify",
            "delete",
        }

    def test_workload_covers_every_action(self, recorded_trace):
        _, records = read_trace(recorded_trace)
        actions = actions_from_records(records)
        workloads, skipped = reconstruct_workload(records)
        rebuilt = sum(len(timeline) for timeline in workloads.values())
        assert rebuilt + skipped == len(actions)
        for timeline in workloads.values():
            times = [timed.time for timed in timeline]
            assert times == sorted(times)

    def test_delete_without_prior_add_is_skipped(self):
        records = [
            {
                "type": "span",
                "name": "agent.action",
                "start": 0.5,
                "attrs": {"switch": "s1", "command": "delete"},
            }
        ]
        workloads, skipped = reconstruct_workload(records)
        assert skipped == 1
        assert workloads == {"s1": []}


class TestReplayExecution:
    def test_replay_runs_to_completion(self, recorded_trace):
        report = replay_file(recorded_trace, "hermes", "pica8-p3290",
                             hermes_config=default_hermes_config())
        assert report.executed > 0
        assert report.executed + report.skipped == len(report.actions)
        assert len(report.response_times) == report.executed
        assert all(rt >= 0.0 for rt in report.response_times)
        assert report.switches

    def test_replay_is_deterministic(self, recorded_trace):
        first = replay_records(
            read_trace(recorded_trace)[1], "naive", "pica8-p3290", seed=3
        )
        second = replay_records(
            read_trace(recorded_trace)[1], "naive", "pica8-p3290", seed=3
        )
        assert first.response_times == second.response_times

    def test_replay_against_other_scheme_and_model(self, recorded_trace):
        # The recorded workload re-executes against any scheme/model pair.
        report = replay_file(recorded_trace, "naive", "dell-8132f")
        assert report.executed > 0

    def test_replayed_trace_diffs_against_original(
        self, recorded_trace, tmp_path
    ):
        out_path = str(tmp_path / "replayed.jsonl")
        report = replay_file(
            recorded_trace,
            "hermes",
            "pica8-p3290",
            out_path=out_path,
            hermes_config=default_hermes_config(),
        )
        assert report.tracer is not None
        header, records = read_trace(out_path)
        assert header["meta"]["replay_of"] == recorded_trace
        assert sum(
            1
            for record in records
            if record.get("type") == "span"
            and record.get("name") == "agent.action"
        ) == report.executed
        completed = _run_cli(
            "-m", "repro.obs", "diff", recorded_trace, out_path
        )
        assert completed.returncode == 0
        assert "control actions" in completed.stdout

    def test_replay_records_every_layer_to_the_tracer(
        self, recorded_trace, tmp_path
    ):
        # Hermes and its Rule Manager record to the ambient tracer, not to
        # the agent: the replay must install its tracer around the run.
        out_path = str(tmp_path / "replayed.jsonl")
        report = replay_file(
            recorded_trace,
            "hermes",
            "pica8-p3290",
            out_path=out_path,
            hermes_config=default_hermes_config(),
        )
        _header, records = read_trace(out_path)
        adds = sum(1 for action in report.actions if action.command == "add")
        gatekeeper = sum(
            1
            for record in records
            if record.get("type") == "event"
            and record.get("name") == "hermes.gatekeeper"
        )
        assert adds > 0
        assert gatekeeper == adds


def _run_cli(*args):
    env = dict(os.environ)
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


class TestReplayCli:
    def test_cli_replays_and_writes_trace(self, recorded_trace, tmp_path):
        out_path = str(tmp_path / "cli-replayed.jsonl")
        completed = _run_cli(
            "-m",
            "repro.engine",
            "replay",
            recorded_trace,
            "--scheme",
            "naive",
            "--switch",
            "pica8-p3290",
            "--out",
            out_path,
        )
        assert completed.returncode == 0, completed.stderr
        assert "replayed" in completed.stdout
        assert os.path.exists(out_path)
        header, _ = read_trace(out_path)
        assert header["meta"]["scheme"] == "naive"

    def test_unreadable_trace_is_a_usage_error(self, tmp_path):
        bogus = tmp_path / "not-a-trace.jsonl"
        bogus.write_text("not json\n")
        for path in (str(tmp_path / "MISSING.jsonl"), str(bogus)):
            completed = _run_cli("-m", "repro.engine", "replay", path)
            assert completed.returncode == 2, completed.stderr
            assert path in completed.stderr
            assert "Traceback" not in completed.stderr
