"""Behavior-preservation tests for the kernel re-seat.

The digests below were captured at the pre-refactor seed HEAD (the legacy
``Simulation`` with its private heap and per-layer ``now`` cursors).  The
kernel-backed simulator must reproduce them byte-for-byte — metrics AND
golden trace — with zero tolerance.  Each scenario runs in a fresh
subprocess because it generates its workload, whose flow ids come from a
process-global counter that ECMP hashes on; the trace also carries rule
ids, which come from another.
"""

import hashlib
import json
import os
import subprocess
import sys

# sha256 digests captured from the pre-kernel simulator (seed HEAD).
# FIG01_DIGEST was re-pinned once when event-scheduled completions became
# the only loop: RITs and JCTs are identical, 7 of 148 FCTs moved by 2 ulps.
# Both were re-pinned once when a flow's install outcome became the only
# record of its rules: a reroute deletes the old rule ids (it used to
# delete the new ones where the paths shared a switch and leak the old),
# so tables no longer grow and inserts see lower occupancy (EXPERIMENTS.md,
# "One owner for a flow's rules").
FIG01_DIGEST = "e3bafbd64e05ceaaf9ed9d15a08009c0f9702cf53ecdde6e8f9f4ec2d4c39bff"
FIG08_DIGEST = "6682fbb1f4bdc8fc2fb35520ab825bc54f58903ccf728a39011476970a8bfd8d"
# The canned chaos scenario (``canned_scenario("chaos")``), traced under
# the meta ``{"scenario": "engine-parity"}``.  The only pins of these two
# digests: the profiler parity test (tests/obs/test_perf.py) and the race
# sanitizer's parity test (tests/analysis/test_races.py) import them.
# Re-pinned once when canned chaos became a chaos-experiment cell that
# sends FlowMods: 18 -> 340 trace records, 0 -> 30 RITs.  The trace
# digest was re-pinned again when reroutes began deleting the old rule ids
# rather than the new ones (340 -> 351 records: two more deletes, one
# dropped and retried); the result digest held.
CHAOS_RESULT_DIGEST = (
    "f837f98dceead4e514a5a8db0e19f213cccf2e124dd65d0fc4ac85859a54f5cf"
)
CHAOS_TRACE_DIGEST = (
    "25f74a83e7e342639d3d8d8478a6bcc59e640c36ba04bd90386d6a8aa69695fe"
)
# sha256 of ``result.rows`` for small sensitivity and ablation runs,
# captured while their cells ran through the process-pool sweep runner.
# Any rewrite of the cell loop must keep the same rows in the same order.
SENSITIVITY_ROWS_DIGEST = (
    "93b62a08c4ec0c78ab69dcec60ff3d08269630371f523313182edf042cf25b23"
)
ABLATION_ROWS_DIGEST = (
    "4f16fb4aaf9ed3624935d37c1b36c954249ebb698959180cc9d380ae5ede965e"
)
# sha256 of ``result.rows`` for a small chaos sweep whose resilient cells
# retry and whose lossy cells drop FlowMods, so the retry and loss columns
# are nonzero.  Captured while those columns were still read from a
# trace-folded metrics registry; reading them from the fault log must
# give the same rows.  Re-pinned once when reroutes began deleting the
# old rule ids rather than the new ones.
CHAOS_ROWS_DIGEST = (
    "66527733a9cf50a851bebf94dbd3e6910441ea60af2526d4b4955fb4bf6f31dc"
)

_SCENARIO_SCRIPT = r"""
import hashlib
import json
import sys


def _digest(metrics) -> str:
    payload = json.dumps(
        [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def fig01():
    from repro.experiments.common import (
        WorkloadScale,
        default_hermes_config,
        facebook_workload,
        run_te_simulation,
        te_simulation_config,
    )

    scale = WorkloadScale(job_count=10)
    graph, flows, _short, _long = facebook_workload(scale)
    config = te_simulation_config(scale)
    naive, _ = run_te_simulation(
        graph, flows, "naive", "pica8-p3290", config=config
    )
    hermes, _ = run_te_simulation(
        graph,
        flows,
        "hermes",
        "pica8-p3290",
        hermes_config=default_hermes_config(),
        config=config,
    )
    return hashlib.sha256(
        (_digest(naive) + _digest(hermes)).encode()
    ).hexdigest(), None


def fig08():
    from repro.experiments.common import (
        WorkloadScale,
        default_hermes_config,
        isp_workload,
        run_te_simulation,
        te_simulation_config,
    )

    scale = WorkloadScale(isp_flow_duration=3.0)
    graph, flows = isp_workload("geant", scale)
    config = te_simulation_config(scale, control_rtt=10e-3)
    metrics, _ = run_te_simulation(
        graph,
        flows,
        "hermes",
        "pica8-p3290",
        hermes_config=default_hermes_config(),
        config=config,
    )
    return _digest(metrics), None


def chaos():
    from repro.experiments.common import canned_scenario
    from repro.obs import RecordingTracer, trace_lines, use_tracer

    simulation, _meta = canned_scenario("chaos")
    tracer = RecordingTracer(meta={"scenario": "engine-parity"})
    with use_tracer(tracer):
        metrics = simulation.run()
    trace_payload = "\n".join(trace_lines(tracer)).encode()
    return _digest(metrics), hashlib.sha256(trace_payload).hexdigest()


def _rows_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.rows).encode()).hexdigest()


def sensitivity():
    from repro.experiments.sensitivity import SensitivityConfig, run

    return _rows_digest(run(SensitivityConfig(duration=1.0))), None


def ablation():
    from repro.experiments.ablation import AblationConfig, run

    return _rows_digest(run(AblationConfig(duration=0.3))), None


def chaos_rows():
    from repro.experiments.chaos import ChaosConfig, run

    config = ChaosConfig(job_count=6, max_time=4.0, drop_rates=(0.0, 0.25))
    return _rows_digest(run(config)), None


SCENARIOS = {
    "fig01": fig01,
    "fig08": fig08,
    "chaos": chaos,
    "sensitivity": sensitivity,
    "ablation": ablation,
    "chaos_rows": chaos_rows,
}
result, trace = SCENARIOS[sys.argv[1]]()
print(json.dumps({"result": result, "trace": trace}))
"""

_EVENT_ORDER_SCRIPT = r"""
import json

from repro.engine import TIER_COMPLETION, EventScheduler, RngStreams

scheduler = EventScheduler()
rng = RngStreams(42).stream("event-order")
for index in range(200):
    time = round(float(rng.integers(0, 50)) * 0.25, 6)
    tier = TIER_COMPLETION if index % 7 == 0 else 1
    scheduler.schedule(time, f"kind-{index % 5}", payload=index, tier=tier)
lines = []
while scheduler:
    event = scheduler.pop()
    scheduler.clock.advance_to(event.time)
    lines.append(
        json.dumps(
            {
                "time": event.time,
                "tier": event.tier,
                "kind": event.kind,
                "payload": event.payload,
            },
            sort_keys=True,
        )
    )
print("\n".join(lines))
"""


def _run_script(script: str, *args: str) -> str:
    env = dict(os.environ)
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


def _scenario_digests(name: str) -> dict:
    return json.loads(_run_script(_SCENARIO_SCRIPT, name))


class TestPinnedDigests:
    """The kernel-backed simulator vs. the pre-refactor captures."""

    def test_fig01_byte_identical_to_seed(self):
        assert _scenario_digests("fig01")["result"] == FIG01_DIGEST

    def test_fig08_byte_identical_to_seed(self):
        assert _scenario_digests("fig08")["result"] == FIG08_DIGEST

    def test_traced_chaos_run_byte_identical_to_seed(self):
        digests = _scenario_digests("chaos")
        assert digests["result"] == CHAOS_RESULT_DIGEST
        assert digests["trace"] == CHAOS_TRACE_DIGEST

    def test_sensitivity_rows_pinned(self):
        digests = _scenario_digests("sensitivity")
        assert digests["result"] == SENSITIVITY_ROWS_DIGEST

    def test_ablation_rows_pinned(self):
        assert _scenario_digests("ablation")["result"] == ABLATION_ROWS_DIGEST

    def test_chaos_experiment_rows_pinned(self):
        assert _scenario_digests("chaos_rows")["result"] == CHAOS_ROWS_DIGEST

    def test_chaos_cross_process_determinism(self):
        # Two fresh interpreters, identical digests — the trace digest
        # covers every span/event/sample the run emitted.
        assert _scenario_digests("chaos") == _scenario_digests("chaos")


class TestGoldenEventOrder:
    def test_event_order_identical_across_interpreters(self):
        first = _run_script(_EVENT_ORDER_SCRIPT)
        second = _run_script(_EVENT_ORDER_SCRIPT)
        assert first == second
        records = [json.loads(line) for line in first.splitlines()]
        assert len(records) == 200
        # Order is (time, tier, seq): non-decreasing time, tiered ties,
        # and scheduling order within (time, tier).
        keys = [(r["time"], r["tier"], r["payload"]) for r in records]
        grouped = sorted(keys, key=lambda k: (k[0], k[1]))
        assert keys == grouped
        for (t1, tier1, seq1), (t2, tier2, seq2) in zip(keys, keys[1:]):
            if (t1, tier1) == (t2, tier2):
                assert seq1 < seq2

    def test_event_order_digest_is_stable(self):
        payload = _run_script(_EVENT_ORDER_SCRIPT).encode()
        digest = hashlib.sha256(payload).hexdigest()
        assert digest == hashlib.sha256(
            _run_script(_EVENT_ORDER_SCRIPT).encode()
        ).hexdigest()
