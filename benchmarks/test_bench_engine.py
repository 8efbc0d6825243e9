"""Benchmark: the columnar flow-state engine's scaling curve.

The simulator's :class:`~repro.simulator.flowstate.FlowStore` is measured
from 1k to 1M flows, and the curve lands in one JSON artifact
(``BENCH_engine.json``).  Two probes per size: the rate-recompute
microbenchmark times ``_recompute_rates()`` on a loaded simulation
against the dict reference — the work a per-flow-object backend does per
recompute: build a ``path_links_cached`` dict, run
:func:`~repro.simulator.fairshare.max_min_fair_rates`, assign the rates —
and a full run with batched same-instant arrivals and a ``max_time`` cut
proves the size actually *runs* end to end.  The reference is measured up
to ``BENCH_ENGINE_SCALE_OBJECTS_CAP`` flows and linearly projected beyond
(1M-flow dict fillings would take minutes and say nothing new).  At 100k
flows the columnar recompute must be ≥10× faster, and the largest size
must complete a run with every flow concurrently active.

One paper-scale row rides along, recorded with no gate: the best-of-3
``FlowStore.recompute`` on the paper's k=16 fat tree (``FULL_SCALE``,
3,072 links) with 20,000 flows between random hosts, each on a random
member of its pair's ECMP set.  It is the scale at which the filling's
per-round bottleneck pick, not its per-class walks, sets the cost.

Environment knobs:
    ``BENCH_ENGINE_SCALE_MAX``        largest flow count on the scaling
                                      curve (default 1000000; CI's scale
                                      job caps it at 100000).
    ``BENCH_ENGINE_SCALE_OBJECTS_CAP``  largest flow count at which the
                                      dict reference's recompute is
                                      measured rather than projected
                                      (default 100000).
    ``HERMES_BENCH_DIR``              where the artifact, history and
                                      index go (default ``results/``).
"""

import math
import os
import time

import numpy as np

from repro.baselines import make_installer
from repro.experiments.common import FULL_SCALE
from repro.simulator import (
    FlowStore,
    Simulation,
    SimulationConfig,
    TeAppConfig,
    max_min_fair_rates,
)
from repro.tcam import get_switch_model
from repro.obs.perf.bench import write_bench_artifact
from repro.topology import (
    FatTreeSpec,
    agg_name,
    build_fat_tree,
    core_name,
    edge_name,
    host_name,
    hosts,
)
from repro.topology.routing import path_links_cached
from repro.traffic.flows import FlowSpec


SCALE_SIZES = (1_000, 10_000, 100_000, 1_000_000)
SCALE_INSTANTS = 10
PAPER_SCALE_FLOWS = 20_000


def _scaling_flows(count, instants=SCALE_INSTANTS, seed=23):
    """``count`` flows in ``instants`` same-instant batches on a k=4 pod.

    Sizes are large (≈1 GB) so no flow can complete before the run's
    ``max_time`` cut — the curve measures arrival/recompute scaling, not
    completion dynamics.
    """
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    endpoints = hosts(graph)
    rng = np.random.default_rng(seed)
    per_instant = max(1, count // instants)
    flows = []
    for index in range(count):
        source = endpoints[index % len(endpoints)]
        destination = endpoints[(index * 7 + 3) % len(endpoints)]
        if source == destination:
            destination = endpoints[(index * 7 + 4) % len(endpoints)]
        flows.append(
            FlowSpec(
                source=source,
                destination=destination,
                size=1e9 + float(rng.integers(0, 1e6)),
                start_time=0.01 * min(index // per_instant, instants - 1),
            )
        )
    return graph, flows


def _scale_config():
    return SimulationConfig(
        te=TeAppConfig(epoch=1e6), baseline_occupancy=0, max_time=0.5
    )


def _loaded_simulation(graph, flows):
    """A Simulation with every flow active on its real provider path.

    Flows are injected directly so the recompute timing below isolates
    the progressive filling from arrival dispatch."""
    timing = get_switch_model("pica8-p3290")
    factory = lambda name: make_installer("naive", timing)
    simulation = Simulation(graph, flows[:1], factory, _scale_config())
    for spec in flows:
        path = simulation.provider.ecmp_paths(spec.source, spec.destination)[0]
        simulation._store.add(spec, path)
    return simulation


def _time_columnar_recompute(simulation, repeats):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        simulation._recompute_rates()
        best = min(best, time.perf_counter() - start)
    return best


def _time_reference_recompute(simulation, repeats):
    """Best-of-N wall time of one dict-reference recompute over the
    simulation's active flows (path dict, fair share, rate assignment)."""
    store = simulation._store
    active = {flow_id: store.path(flow_id) for flow_id in store.flow_ids()}
    capacities = simulation._capacities
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        paths = {
            flow_id: path_links_cached(path)
            for flow_id, path in active.items()
        }
        rates = max_min_fair_rates(paths, capacities)
        assigned = {flow_id: rates.get(flow_id, 0.0) for flow_id in active}
        best = min(best, time.perf_counter() - start)
    assert len(assigned) == len(store)
    return best


def _timed_run(graph, flows):
    timing = get_switch_model("pica8-p3290")
    factory = lambda name: make_installer("naive", timing)
    simulation = Simulation(graph, flows, factory, _scale_config())
    start = time.perf_counter()
    metrics = simulation.run()
    seconds = time.perf_counter() - start
    return seconds, metrics.peak_active


def flow_state_scaling(scale_max, objects_cap):
    """The 1k → 1M curve: columnar vs dict-reference recompute per size."""
    sizes = [size for size in SCALE_SIZES if size <= scale_max]
    if not sizes:
        sizes = [min(SCALE_SIZES)]
    recompute_rows = []
    run_rows = []
    objects_anchor = None  # (flows, measured seconds) for projection
    for size in sizes:
        graph, flows = _scaling_flows(size)
        # Best-of-N timings: the speedup gate compares two measurements,
        # so noise on either side must not fake a regression.
        repeats = 3 if size <= 100_000 else 2

        simulation = _loaded_simulation(graph, flows)
        columnar_seconds = _time_columnar_recompute(simulation, repeats)
        row = {
            "flows": size,
            "columnar_recompute_seconds": columnar_seconds,
            "objects_recompute_seconds": None,
            "objects_projected": False,
            "speedup": None,
        }
        if size <= objects_cap:
            row["objects_recompute_seconds"] = _time_reference_recompute(
                simulation, repeats
            )
            objects_anchor = (size, row["objects_recompute_seconds"])
        elif objects_anchor is not None:
            anchor_flows, anchor_seconds = objects_anchor
            row["objects_recompute_seconds"] = anchor_seconds * size / anchor_flows
            row["objects_projected"] = True
        del simulation
        if row["objects_recompute_seconds"]:
            row["speedup"] = row["objects_recompute_seconds"] / max(
                columnar_seconds, 1e-9
            )
        recompute_rows.append(row)

        run_seconds, peak = _timed_run(graph, flows)
        assert peak == size, (
            f"run at {size} flows peaked at {peak} concurrent flows"
        )
        run_rows.append({"flows": size, "seconds": run_seconds})
    return {
        "sizes": sizes,
        "instants": SCALE_INSTANTS,
        "objects_measure_cap": objects_cap,
        "recompute": recompute_rows,
        "runs": run_rows,
    }


def _paper_scale_store(count=PAPER_SCALE_FLOWS, seed=23):
    """A FlowStore on the ``FULL_SCALE`` fat tree with ``count`` flows.

    Each flow joins two distinct random hosts over a random member of
    their ECMP set, built in closed form (up through a random aggregation
    index and core port, down the mirror image) rather than enumerated.
    """
    k = FULL_SCALE.fat_tree_k
    half = k // 2
    graph = build_fat_tree(
        FatTreeSpec(k=k, link_capacity=FULL_SCALE.link_capacity)
    )
    store = FlowStore(
        {
            tuple(sorted((a, b))): data["capacity"]
            for a, b, data in graph.edges(data=True)
        }
    )
    rng = np.random.default_rng(seed)
    draws = rng.integers(
        0, [k, half, half, k, half, half, half, half], size=(count, 8)
    )
    for flow_id, (pod, edge, host, to_pod, to_edge, to_host, agg, port) in (
        enumerate(draws.tolist())
    ):
        if (pod, edge, host) == (to_pod, to_edge, to_host):
            to_host = (to_host + 1) % half
        up = (host_name(pod, edge, host), edge_name(pod, edge))
        down = (edge_name(to_pod, to_edge), host_name(to_pod, to_edge, to_host))
        if (pod, edge) == (to_pod, to_edge):
            path = up + down[1:]
        elif pod == to_pod:
            path = up + (agg_name(pod, agg),) + down
        else:
            path = up + (
                agg_name(pod, agg),
                core_name(agg * half + port),
                agg_name(to_pod, agg),
            ) + down
        store.add(
            FlowSpec(
                source=path[0],
                destination=path[-1],
                size=1e9,
                start_time=0.0,
                flow_id=flow_id,
            ),
            path,
        )
    return store


def paper_scale_fill(repeats=3):
    """Best-of-N ``FlowStore.recompute`` on the paper-scale store."""
    store = _paper_scale_store()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        store.recompute()
        best = min(best, time.perf_counter() - start)
    return {
        "fat_tree_k": FULL_SCALE.fat_tree_k,
        "links": int(store.link_capacity.size),
        "flows": len(store),
        "recompute_seconds": best,
    }


def run_bench():
    scale_max = int(os.environ.get("BENCH_ENGINE_SCALE_MAX", "1000000"))
    objects_cap = int(
        os.environ.get("BENCH_ENGINE_SCALE_OBJECTS_CAP", "100000")
    )
    return {
        "flow_scaling": flow_state_scaling(scale_max, objects_cap),
        "paper_scale": paper_scale_fill(),
    }


def test_bench_engine(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    runs = payload["flow_scaling"]["runs"]
    write_bench_artifact(
        "engine",
        headline={
            "flow_scaling_max_flows": payload["flow_scaling"]["sizes"][-1],
            "flow_scaling_recompute_speedup": max(
                row["speedup"] or 0.0
                for row in payload["flow_scaling"]["recompute"]
                if not row["objects_projected"]
            ),
            "flow_scaling_columnar_run_seconds": runs[-1]["seconds"],
            "paper_scale_recompute_seconds": (
                payload["paper_scale"]["recompute_seconds"]
            ),
        },
        payload=payload,
    )

    print()
    scaling = payload["flow_scaling"]
    for row in scaling["recompute"]:
        objects_note = "-"
        if row["objects_recompute_seconds"] is not None:
            suffix = " (projected)" if row["objects_projected"] else ""
            objects_note = (
                f"{row['objects_recompute_seconds']:.4f}s{suffix} "
                f"({row['speedup']:.1f}x)"
            )
        print(
            f"recompute @ {row['flows']:>7} flows: "
            f"columnar={row['columnar_recompute_seconds']:.4f}s "
            f"reference={objects_note}"
        )
    for row in runs:
        print(f"run @ {row['flows']:>7} flows: {row['seconds']:.2f}s")
    paper = payload["paper_scale"]
    print(
        f"recompute @ k={paper['fat_tree_k']} fat tree, "
        f"{paper['flows']} flows: {paper['recompute_seconds']:.4f}s"
    )

    # The columnar contract: ≥10× faster rate recompute at 100k flows
    # (measured head-to-head, not projected) and a completed run at the
    # curve's largest size with every flow concurrently active (the
    # per-size assert in flow_state_scaling already checked the peaks).
    measured = {
        row["flows"]: row
        for row in scaling["recompute"]
        if row["objects_recompute_seconds"] is not None
        and not row["objects_projected"]
    }
    if 100_000 in measured:
        assert measured[100_000]["speedup"] >= 10, measured[100_000]
    assert runs[-1]["flows"] == scaling["sizes"][-1]
