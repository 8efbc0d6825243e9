"""Tests for kernel-scheduled completions.

The simulator arms one completion event per rate epoch (the earliest
ETA) and discards stale ones on peek.  These tests hold that loop to
completing every flow exactly once and to cross-process determinism.
"""

import os
import subprocess
import sys

import numpy as np

from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs


def _workload(job_count=8, seed=21):
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    flows = flows_of(
        generate_jobs(
            hosts(graph),
            job_count=job_count,
            arrival_rate=6.0,
            rng=np.random.default_rng(seed),
        )
    )
    return graph, flows


def _run(config):
    graph, flows = _workload()
    timing = get_switch_model("pica8-p3290")
    factory = lambda name: make_installer("naive", timing)
    simulation = Simulation(graph, flows, factory, config)
    metrics = simulation.run()
    return metrics, simulation


class TestStaleCompletions:
    def test_event_mode_skips_stale_completions(self):
        # TE epoch far beyond the workload: every arrival recomputes rates
        # and re-arms the completion event, so all but the last epoch's
        # events go stale — the run must still complete every flow
        # exactly once.
        config = SimulationConfig(
            te=TeAppConfig(epoch=1e6), baseline_occupancy=0
        )
        metrics, simulation = _run(config)
        records = metrics.flow_records()
        assert records
        assert all(record.completed for record in records)
        assert len(metrics.fcts()) == len(records)
        assert not simulation._store


_EVENT_DIGEST_SCRIPT = r"""
import hashlib
import json

import numpy as np

from repro.baselines import make_installer
from repro.experiments.common import default_hermes_config
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs

graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
flows = flows_of(
    generate_jobs(
        hosts(graph), job_count=6, arrival_rate=6.0,
        rng=np.random.default_rng(17),
    )
)
config = SimulationConfig(
    te=TeAppConfig(epoch=0.25),
    baseline_occupancy=100,
    max_time=3.0,
)
timing = get_switch_model("pica8-p3290")
hermes_config = default_hermes_config()
factory = lambda name: make_installer(
    "hermes", timing, hermes_config=hermes_config
)
metrics = Simulation(graph, flows, factory, config).run()
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
print(hashlib.sha256(payload).hexdigest())
"""


def _event_digest() -> str:
    env = dict(os.environ)
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-c", _EVENT_DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


class TestEventModeDeterminism:
    def test_cross_process_digest_identical(self):
        assert _event_digest() == _event_digest()
