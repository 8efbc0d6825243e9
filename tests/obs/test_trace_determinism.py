"""The tentpole's determinism guarantees, checked cross-process.

Two properties, each requiring fresh interpreters (flow ids come from a
process-global counter that ECMP hashes on, so a scenario regenerated in
one interpreter routes differently, and spans carry rule ids, which come
from another process-global counter):

* **golden trace** — the same fixed-seed scenario, traced in two separate
  processes, produces byte-identical JSONL (span ids are per-tracer, trace
  timestamps are sim time, exports sort keys).
* **no-op parity** — running the same scenario with and without a
  recording tracer produces byte-identical *result* digests: the
  instrumentation only records, it never perturbs.
"""

import hashlib
import os
import subprocess
import sys

_COMMON = r"""
import hashlib, json, sys
import numpy as np
from repro.baselines import make_installer
from repro.experiments.common import default_hermes_config
from repro.faults import FaultInjector, FaultPlan, FlowModFault
from repro.obs import RecordingTracer, trace_lines, use_tracer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.switchsim import ChannelConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs

mode = sys.argv[1]
graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
flows = flows_of(
    generate_jobs(
        hosts(graph), job_count=4, arrival_rate=6.0, rng=np.random.default_rng(13)
    )
)
plan = FaultPlan(flowmod=FlowModFault(drop=0.1, ack_loss_fraction=0.3))
injector = FaultInjector(plan=plan, seed=13)
config = SimulationConfig(
    te=TeAppConfig(epoch=0.25),
    baseline_occupancy=200,
    max_time=2.5,
    channel_config=ChannelConfig(),
    fault_plan=plan,
    fault_seed=13,
)
timing = get_switch_model("pica8-p3290")
hermes_config = default_hermes_config()
factory = lambda name: make_installer(
    "hermes", timing, hermes_config=hermes_config, injector=injector
)

if mode == "untraced":
    simulation = Simulation(graph, flows, factory, config, injector=injector)
    metrics = simulation.run()
    tracer = None
else:
    tracer = RecordingTracer(meta={"scenario": "determinism"})
    with use_tracer(tracer):
        simulation = Simulation(graph, flows, factory, config, injector=injector)
        metrics = simulation.run()

result_payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
print(hashlib.sha256(result_payload).hexdigest())
if tracer is not None:
    trace_payload = "\n".join(trace_lines(tracer)).encode()
    print(hashlib.sha256(trace_payload).hexdigest())
"""


def _run(mode: str):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _COMMON, mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.split()


class TestGoldenTrace:
    def test_trace_is_identical_across_processes(self):
        first = _run("traced")
        second = _run("traced")
        assert first[1] == second[1]  # byte-identical JSONL trace
        assert first[0] == second[0]  # and identical results, of course

    def test_trace_digest_is_not_degenerate(self):
        # Guard against the trivial way to pass the test above: an empty
        # trace.  The digest must differ from the empty-string digest.
        digest = _run("traced")[1]
        assert digest != hashlib.sha256(b"").hexdigest()


class TestNoOpParity:
    def test_recording_tracer_does_not_perturb_results(self):
        untraced = _run("untraced")[0]
        traced = _run("traced")[0]
        assert untraced == traced
