"""Opt-in benchmark: the Figure 1 simulations at the paper's scale.

Runs the Figure 1 workload at ``FULL_SCALE`` (k=16 fat tree, 1,024
hosts, 2,000 MapReduce jobs) once per scheme Figure 1 compares (the
Pica8 P-3290 as is, Hermes, Tango and ESPRES), and asserts that every
flow completes and that every switch ends holding exactly its prefill.
One run takes tens of seconds, so the module is skipped unless
``BENCH_FULL_SCALE=1``, and CI does not run it::

    BENCH_FULL_SCALE=1 HERMES_BENCH_DIR=/tmp/bench PYTHONPATH=src \\
        python -m pytest -q -s benchmarks/test_bench_full_scale.py

Each run writes a ``hermes-bench/1`` artifact,
``BENCH_full_scale_<scheme>.json``, whose headline holds the wall time of
the run (``run_seconds``; the workload's generation is not timed).
"""

import os

import pytest

from repro.experiments.common import (
    FULL_SCALE,
    default_hermes_config,
    facebook_workload,
    run_te_simulation,
    te_simulation_config,
)
from repro.experiments.fig01_jct import SCHEMES
from repro.obs.perf.bench import write_bench_artifact
from repro.obs.perf.wallclock import wallclock

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_FULL_SCALE") != "1",
    reason="paper-scale run; set BENCH_FULL_SCALE=1 to run it",
)


@pytest.fixture(scope="module")
def workload():
    graph, flows, _short, _long = facebook_workload(FULL_SCALE)
    return graph, flows


@pytest.mark.parametrize("label, scheme", SCHEMES, ids=[s for _, s in SCHEMES])
def test_bench_full_scale(workload, label, scheme):
    graph, flows = workload
    config = te_simulation_config(FULL_SCALE)
    start = wallclock()
    metrics, simulation = run_te_simulation(
        graph,
        flows,
        scheme,
        "pica8-p3290",
        hermes_config=default_hermes_config() if scheme == "hermes" else None,
        config=config,
    )
    run_seconds = wallclock() - start
    completed = len(metrics.fcts())
    print(
        f"\nFULL_SCALE {label}: {len(flows)} flows, {completed} completed, "
        f"{simulation.now:.1f} s simulated in {run_seconds:.1f} s wall"
    )
    assert completed == len(flows)
    extra = {
        name: agent.installer.occupancy() - config.baseline_occupancy
        for name, agent in simulation.controller.agents.items()
    }
    assert {name: count for name, count in extra.items() if count} == {}
    write_bench_artifact(
        f"full_scale_{scheme}",
        {
            "run_seconds": run_seconds,
            "simulated_seconds": simulation.now,
            "flows": len(flows),
        },
        meta={"fat_tree_k": FULL_SCALE.fat_tree_k, "scheme": scheme},
    )
