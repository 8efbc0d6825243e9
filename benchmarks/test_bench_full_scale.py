"""Opt-in benchmark: one Hermes simulation at the paper's scale.

Runs the Figure 1 workload at ``FULL_SCALE`` (k=16 fat tree, 1,024
hosts, 2,000 MapReduce jobs) once, under the default Hermes on the
Pica8 P-3290, and asserts that every flow completes.  One run takes tens
of seconds, so it is skipped unless ``BENCH_FULL_SCALE=1``, and CI does
not run it::

    BENCH_FULL_SCALE=1 HERMES_BENCH_DIR=/tmp/bench PYTHONPATH=src \\
        python -m pytest -q -s benchmarks/test_bench_full_scale.py

It writes a ``hermes-bench/1`` artifact, ``BENCH_full_scale.json``, whose
headline holds the wall time of the run (``run_seconds``; the workload's
generation is not timed).
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
from repro.obs.perf.bench import write_bench_artifact
from repro.obs.perf.wallclock import wallclock

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_FULL_SCALE") != "1",
    reason="paper-scale run; set BENCH_FULL_SCALE=1 to run it",
)


def test_bench_full_scale():
    graph, flows, _short, _long = facebook_workload(FULL_SCALE)
    start = wallclock()
    metrics, simulation = run_te_simulation(
        graph,
        flows,
        "hermes",
        "pica8-p3290",
        hermes_config=default_hermes_config(),
        config=te_simulation_config(FULL_SCALE),
    )
    run_seconds = wallclock() - start
    completed = len(metrics.fcts())
    print(
        f"\nFULL_SCALE Hermes: {len(flows)} flows, {completed} completed, "
        f"{simulation.now:.1f} s simulated in {run_seconds:.1f} s wall"
    )
    assert completed == len(flows)
    write_bench_artifact(
        "full_scale",
        {
            "run_seconds": run_seconds,
            "simulated_seconds": simulation.now,
            "flows": len(flows),
        },
        meta={"fat_tree_k": FULL_SCALE.fat_tree_k, "scheme": "hermes"},
    )
