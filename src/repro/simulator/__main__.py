"""CLI for the Varys simulator.

Run one (topology x workload x scheme x switch) simulation and print the
RIT / FCT / JCT summary::

    python -m repro.simulator --topology fat-tree --k 4 --scheme hermes \\
        --switch pica8-p3290 --jobs 40
    python -m repro.simulator --topology geant --scheme naive \\
        --switch dell-8132f --duration 6
"""

from __future__ import annotations

import argparse

import numpy as np

from ..baselines import INSTALLER_NAMES, make_installer
from ..tcam import SWITCH_MODEL_NAMES, get_switch_model
from ..topology import FatTreeSpec, build_fat_tree, get_isp_topology, hosts, pops
from ..traffic import (
    flows_from_matrix,
    flows_of,
    generate_jobs,
    gravity_matrix,
)
from .simulation import Simulation, SimulationConfig
from .sdnapp import TeAppConfig


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.simulator",
        description="Run one Varys flow-level simulation.",
    )
    parser.add_argument(
        "--topology",
        default="fat-tree",
        choices=["fat-tree", "abilene", "geant", "quest"],
    )
    parser.add_argument("--k", type=int, default=4, help="fat-tree k (even)")
    parser.add_argument(
        "--link-gbps", type=float, default=1.0, help="link capacity in Gbit/s"
    )
    parser.add_argument("--scheme", default="naive", choices=sorted(INSTALLER_NAMES))
    parser.add_argument(
        "--switch", default="pica8-p3290", choices=sorted(SWITCH_MODEL_NAMES)
    )
    parser.add_argument("--jobs", type=int, default=40, help="MapReduce jobs (fat-tree)")
    parser.add_argument(
        "--duration", type=float, default=6.0, help="flow window in seconds (ISP)"
    )
    parser.add_argument("--epoch", type=float, default=0.2, help="TE epoch seconds")
    parser.add_argument(
        "--occupancy", type=int, default=500, help="baseline rules per switch"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--reactive", action="store_true", help="packet-in routing mode"
    )
    return parser


def build_workload(args):
    """(graph, flows) for the requested topology/workload."""
    rng = np.random.default_rng(args.seed)
    if args.topology == "fat-tree":
        graph = build_fat_tree(
            FatTreeSpec(k=args.k, link_capacity=args.link_gbps * 1e9)
        )
        jobs = generate_jobs(hosts(graph), job_count=args.jobs, rng=rng)
        return graph, flows_of(jobs)
    graph = get_isp_topology(args.topology, link_capacity=args.link_gbps * 1e9)
    total = 0.35 * sum(d["capacity"] for _, _, d in graph.edges(data=True))
    matrix = gravity_matrix(pops(graph), total, rng=rng)
    return graph, flows_from_matrix(
        matrix, duration=args.duration, mean_flow_size=100e6, rng=rng
    )


def main(argv=None) -> int:
    """Parse args, run the simulation, print the summary."""
    args = build_parser().parse_args(argv)
    graph, flows = build_workload(args)
    config = SimulationConfig(
        te=TeAppConfig(epoch=args.epoch, utilization_threshold=0.5),
        baseline_occupancy=args.occupancy,
        initial_path_policy="static",
        routing_mode="reactive" if args.reactive else "proactive",
        max_time=3600.0,
    )
    timing = get_switch_model(args.switch)
    factory = lambda name: make_installer(args.scheme, timing)
    simulation = Simulation(graph, flows, factory, config)
    print(
        f"Running {args.scheme} on {args.switch} over {args.topology} "
        f"({len(flows)} flows) ..."
    )
    metrics = simulation.run()
    rits = metrics.rits()
    fcts = metrics.fcts()
    jcts = list(metrics.jcts().values())
    print(f"completed flows: {len(fcts)}/{len(flows)}")
    if rits:
        print(
            f"RIT:  median {np.median(rits) * 1e3:8.3f} ms   "
            f"p99 {np.percentile(rits, 99) * 1e3:8.3f} ms   ({len(rits)} installs)"
        )
    if fcts:
        print(
            f"FCT:  median {np.median(fcts):8.3f} s    "
            f"p99 {np.percentile(fcts, 99):8.3f} s"
        )
    if jcts:
        print(f"JCT:  median {np.median(jcts):8.3f} s    ({len(jcts)} jobs)")
    print(
        f"reroutes: {metrics.total_reroutes()}   "
        f"guarantee violations: {simulation.controller.total_violations()}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
