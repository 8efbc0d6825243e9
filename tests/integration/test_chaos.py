"""End-to-end chaos tests: the ISSUE's acceptance criteria, in miniature.

Byte-identity must be checked *cross-process*: each arm regenerates its
workload, and flow ids come from a process-global counter that ECMP hashes
on, so two workloads generated in one interpreter route differently for
reasons unrelated to faults.  Each arm of the comparison runs in a fresh
``python`` subprocess and reports a digest of its metric series.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments.chaos import ChaosConfig, run_cell

SMALL = ChaosConfig(job_count=6, max_time=4.0)

# Row tail indices returned by run_cell; VIOLATIONS is the structured
# record list the ruleset verifier appends (and extras exposes).
INSTALLS, RETRIES, INJECTED, LOST, DUPS, INVARIANT, VIOLATIONS = (
    0, 1, 2, 3, 4, 5, 7,
)


class TestChaosCells:
    @pytest.mark.parametrize("scheme", ["naive", "hermes"])
    @pytest.mark.parametrize("drop_rate", [0.1, 0.25])
    def test_resilient_channel_loses_nothing(self, scheme, drop_rate):
        cell = run_cell(scheme, "resilient", drop_rate, SMALL)
        assert cell[LOST] == 0  # every install eventually landed
        assert cell[DUPS] == 0  # lost acks never double-installed
        assert cell[INVARIANT] == 0  # Algorithm 1's invariant held
        assert cell[INJECTED] > 0  # ...and faults really were injected
        # One redelivery per injected loss, none wasted:
        assert cell[RETRIES] == cell[INJECTED]

    def test_cells_record_structured_verifier_output(self):
        # The invariant/duplicate columns are now *derived* from the shared
        # ruleset verifier's records, so a clean cell must report both an
        # empty record list and zero counts — and a corrupted record list
        # would surface per-switch attribution.
        cell = run_cell("hermes", "resilient", 0.1, SMALL)
        assert cell[VIOLATIONS] == []
        assert cell[DUPS] == 0 and cell[INVARIANT] == 0

    def test_naive_channel_loses_installs(self):
        cell = run_cell("naive", "naive", 0.1, SMALL)
        assert cell[LOST] > 0
        assert cell[RETRIES] == 0  # fire-and-forget never retries

    @pytest.mark.parametrize("scheme", ["naive", "hermes"])
    def test_drop_zero_parity(self, scheme):
        # At drop rate zero the resilient channel must do exactly the work
        # the naive one does: same installs, no retries, no losses.
        naive = run_cell(scheme, "naive", 0.0, SMALL)
        resilient = run_cell(scheme, "resilient", 0.0, SMALL)
        assert resilient[INSTALLS] == naive[INSTALLS]
        assert resilient[RETRIES] == 0
        assert resilient[LOST] == 0 and naive[LOST] == 0


class TestCannedChaos:
    def test_uses_the_control_path(self):
        # The canned scenario that the pinned chaos digests, SimRace and
        # `perf profile chaos` run must send FlowMods through the lossy
        # channel, the agent and the Gate Keeper.
        from repro.experiments.common import canned_scenario
        from repro.obs import RecordingTracer, use_tracer

        simulation, _meta = canned_scenario("chaos")
        tracer = RecordingTracer()
        with use_tracer(tracer):
            simulation.run()
        names = {(record["type"], record["name"]) for record in tracer.records}
        assert ("span", "flowmod") in names
        assert ("event", "hermes.gatekeeper") in names
        assert ("event", "channel.timeout") in names
        counts = simulation.injector.log.counts()
        for kind in (
            "retry", "flowmod-drop", "flowmod-ack-loss", "flowmod-duplicate"
        ):
            assert counts.get(kind, 0) > 0, counts


_DIGEST_SCRIPT = r"""
import hashlib, json, sys
import numpy as np
from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs

mode, scheme = sys.argv[1], sys.argv[2]
graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
flows = flows_of(
    generate_jobs(
        hosts(graph), job_count=6, arrival_rate=6.0, rng=np.random.default_rng(7)
    )
)
timing = get_switch_model("pica8-p3290")
kwargs = {}
if scheme == "hermes":
    from repro.experiments.common import default_hermes_config

    kwargs["hermes_config"] = default_hermes_config()
if mode == "plain":
    config = SimulationConfig(
        te=TeAppConfig(epoch=0.25), baseline_occupancy=200, max_time=3.0
    )
    factory = lambda name: make_installer(scheme, timing, **kwargs)
    simulation = Simulation(graph, flows, factory, config)
else:  # null-plan injector + naive channel: must be byte-identical
    from repro.faults import FaultInjector, FaultPlan

    plan = FaultPlan()
    injector = FaultInjector(plan=plan, seed=7)
    config = SimulationConfig(
        te=TeAppConfig(epoch=0.25),
        baseline_occupancy=200,
        max_time=3.0,
        fault_plan=plan,
    )
    factory = lambda name: make_installer(scheme, timing, injector=injector, **kwargs)
    simulation = Simulation(graph, flows, factory, config, injector=injector)
metrics = simulation.run()
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
print(hashlib.sha256(payload).hexdigest())
"""


def _digest(mode: str, scheme: str) -> str:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, mode, scheme],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


class TestByteIdentity:
    @pytest.mark.parametrize("scheme", ["naive", "hermes"])
    def test_null_plan_is_byte_identical_to_seed_path(self, scheme):
        assert _digest("plain", scheme) == _digest("faultless", scheme)
