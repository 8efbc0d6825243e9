"""Shared machinery for the per-figure experiment modules.

Every experiment module exposes ``run(config) -> ExperimentResult`` with a
config dataclass defaulting to a *quick* scale that completes in seconds
(the benchmarks use it).  Passing ``full=True`` moves to paper scale (k=16
fat tree, thousands of jobs); the shapes are identical, the tails longer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..baselines import make_installer
from ..core import GuaranteeSpec, HermesConfig
from ..engine.rng import RngStreams
from ..obs.tracer import Tracer, get_tracer, use_tracer
from ..simulator import MetricsCollector, Simulation, SimulationConfig, TeAppConfig
from ..switchsim import SwitchAgent
from ..tcam import get_switch_model
from ..topology import FatTreeSpec, build_fat_tree, get_isp_topology, hosts, pops
from ..traffic import (
    TimedFlowMod,
    flows_from_matrix,
    flows_of,
    generate_jobs,
    gravity_matrix,
    is_short_job,
    tomogravity_matrix,
    link_loads_from_matrix,
)

SWITCHES_UNDER_TEST = ("dell-8132f", "hp-5406zl", "pica8-p3290")


@dataclass(frozen=True)
class WorkloadScale:
    """Knobs separating quick (benchmark) runs from paper-scale runs."""

    fat_tree_k: int = 4
    link_capacity: float = 1e9
    job_count: int = 40
    job_arrival_rate: float = 4.0
    isp_flow_duration: float = 6.0
    isp_mean_flow_size: float = 100e6
    isp_load_factor: float = 0.35  # fraction of total capacity offered
    seed: int = 0


QUICK_SCALE = WorkloadScale()
FULL_SCALE = WorkloadScale(
    fat_tree_k=16,
    link_capacity=40e9,
    job_count=2000,
    job_arrival_rate=25.0,
    isp_flow_duration=60.0,
)


def default_hermes_config(guarantee_ms: float = 5.0) -> HermesConfig:
    """The paper's default Hermes: Cubic Spline + Slack 100%, 5 ms."""
    return HermesConfig(
        guarantee=GuaranteeSpec.milliseconds(guarantee_ms),
        predictor="cubic-spline",
        corrector="slack",
        slack=1.0,
    )


def installer_factory(
    scheme: str,
    switch: str,
    hermes_config: Optional[HermesConfig] = None,
    seed: Optional[int] = None,
) -> Callable[[str], object]:
    """A per-switch installer factory for the simulator.

    Each switch gets an independent installer (and an independent named
    :class:`~repro.engine.rng.RngStreams` stream when ``seed`` is given, so
    latency noise differs per switch but runs stay reproducible).  The
    switches share one timing model: it holds no per-switch state, so its
    per-occupancy table is built once per factory, not once per switch.
    """
    streams = RngStreams(seed) if seed is not None else None
    timing = get_switch_model(switch)

    def factory(switch_name: str):
        rng = None
        if streams is not None:
            rng = streams.stream(f"installer:{switch_name}")
        return make_installer(
            scheme,
            timing,
            rng=rng,
            hermes_config=(
                replace(hermes_config) if hermes_config is not None else None
            ),
        )

    return factory


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def facebook_workload(scale: WorkloadScale = QUICK_SCALE):
    """The Facebook MapReduce workload on a fat tree.

    Returns (graph, flows, short_job_ids, long_job_ids).
    """
    graph = build_fat_tree(
        FatTreeSpec(k=scale.fat_tree_k, link_capacity=scale.link_capacity)
    )
    jobs = generate_jobs(
        hosts(graph),
        job_count=scale.job_count,
        arrival_rate=scale.job_arrival_rate,
        rng=np.random.default_rng(scale.seed),
    )
    short_ids = {job.job_id for job in jobs if is_short_job(job)}
    long_ids = {job.job_id for job in jobs if not is_short_job(job)}
    return graph, flows_of(jobs), short_ids, long_ids


def isp_workload(name: str, scale: WorkloadScale = QUICK_SCALE, tomogravity: bool = False):
    """An ISP workload: gravity (or tomo-gravity) TM realized as flows.

    Returns (graph, flows).
    """
    graph = get_isp_topology(name)
    total_capacity = sum(data["capacity"] for _, _, data in graph.edges(data=True))
    matrix = gravity_matrix(
        pops(graph),
        total_traffic=scale.isp_load_factor * total_capacity,
        rng=np.random.default_rng(scale.seed),
    )
    if tomogravity:
        # The paper's §8.1.3 pipeline: derive link loads, re-estimate the
        # matrix tomographically, and use the estimate.
        loads = link_loads_from_matrix(graph, matrix)
        matrix = tomogravity_matrix(graph, loads)
    flows = flows_from_matrix(
        matrix,
        duration=scale.isp_flow_duration,
        mean_flow_size=scale.isp_mean_flow_size,
        rng=np.random.default_rng(scale.seed + 1),
    )
    return graph, flows


def te_simulation_config(
    scale: WorkloadScale = QUICK_SCALE, control_rtt: float = 0.25e-3
) -> SimulationConfig:
    """The TE-simulation parameters shared by Figures 1 and 8-10."""
    return SimulationConfig(
        control_rtt=control_rtt,
        te=TeAppConfig(
            epoch=0.2, utilization_threshold=0.5, max_moves_per_epoch=24
        ),
        k_paths=4,
        max_time=1200.0,
        baseline_occupancy=500,
        initial_path_policy="static",
    )


def run_te_simulation(
    graph: nx.Graph,
    flows,
    scheme: str,
    switch: str,
    hermes_config: Optional[HermesConfig] = None,
    config: Optional[SimulationConfig] = None,
    seed: int = 100,
    tracer: Optional[Tracer] = None,
):
    """Run one (workload x scheme x switch) simulation; returns (metrics, sim).

    Passing a :class:`~repro.obs.RecordingTracer` as ``tracer`` records
    the run's control-plane trace; None leaves the ambient (default no-op)
    tracer in place, so untraced runs are byte-identical to the seed.
    """
    factory = installer_factory(scheme, switch, hermes_config, seed=seed)
    with use_tracer(tracer if tracer is not None else get_tracer()):
        simulation = Simulation(
            graph,
            list(flows),
            factory,
            config if config is not None else te_simulation_config(),
        )
        metrics = simulation.run()
    return metrics, simulation


def run_schemes(
    graph: nx.Graph,
    flows,
    runs: Sequence[Tuple[str, str, str]],
    config: SimulationConfig,
) -> Dict[str, MetricsCollector]:
    """Run one workload under each ``(label, scheme, switch)``, in order.

    Hermes runs use :func:`default_hermes_config`.  Returns each run's
    metrics by label; Figures 1, 8 and 9 read their JCTs, RITs and FCTs
    from it.
    """
    return {
        label: run_te_simulation(
            graph,
            flows,
            scheme,
            switch,
            hermes_config=default_hermes_config() if scheme == "hermes" else None,
            config=config,
        )[0]
        for label, scheme, switch in runs
    }


# ----------------------------------------------------------------------
# Canned scenarios (shared by the race CLI, the perf CLI, and CI)
# ----------------------------------------------------------------------
CANNED_SCENARIOS = ("fig01", "fig08", "chaos")


def canned_scenario(name: str):
    """Construct (but do not run) one canned end-to-end scenario.

    Returns ``(simulation, meta)`` — the caller attaches whatever
    instrumentation it wants (race sanitizer, wall-clock profiler) and
    drives ``simulation.run()`` itself.  Construction order is part of
    the parity contract: the race-sanitizer and profiler on/off tests pin
    digests of these exact runs, so RNG draws made while building must
    not move.  Callers that want a trace install a recording tracer
    around ``simulation.run()``: every component records to the ambient
    tracer.
    """
    if name == "chaos":
        # chaos.py imports this module; import it at call time.
        from .chaos import ChaosConfig, chaos_simulation

        chaos = ChaosConfig(job_count=4, max_time=3.0)
        meta = {
            "scenario": name,
            "scheme": "hermes",
            "switch": chaos.switch,
            "channel": "resilient",
            "drop": 0.1,
            "seed": chaos.seed,
        }
        simulation = chaos_simulation(
            meta["scheme"], meta["channel"], meta["drop"], chaos
        )
        return simulation, meta
    if name == "fig01":
        scale = WorkloadScale(job_count=10)
        graph, flows, _short, _long = facebook_workload(scale)
        config = te_simulation_config(scale)
    elif name == "fig08":
        scale = WorkloadScale(isp_flow_duration=3.0)
        graph, flows = isp_workload("geant", scale)
        config = te_simulation_config(scale, control_rtt=10e-3)
    else:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(CANNED_SCENARIOS)}"
        )
    factory = installer_factory(
        "hermes", "pica8-p3290", default_hermes_config(), seed=100
    )
    meta = {"scenario": name, "scheme": "hermes", "switch": "pica8-p3290"}
    return Simulation(graph, list(flows), factory, config), meta


# ----------------------------------------------------------------------
# Single-switch trace replay (microbench / BGP / time series)
# ----------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """Result of replaying a timed FlowMod trace against one switch.

    Attributes:
        response_times: queueing-inclusive per-action times (what a
            controller observes).
        execution_latencies: pure TCAM execution time per action (what the
            switch spends — the Figure 11 series).
        agent: the switch agent, for scheme-specific introspection.
    """

    response_times: List[float]
    execution_latencies: List[float]
    agent: SwitchAgent

    @property
    def installer(self):
        """The installer behind the replayed agent."""
        return self.agent.installer


def replay_trace(
    trace: Sequence[TimedFlowMod],
    scheme: str,
    switch: str,
    hermes_config: Optional[HermesConfig] = None,
    prefill_rules: Sequence = (),
    batch_window: Optional[float] = None,
    seed: int = 7,
) -> ReplayOutcome:
    """Replay a timed trace against a fresh single-switch installer.

    Args:
        trace: timed FlowMods, in time order.
        scheme: installer name (naive / hermes / tango / espres / ...).
        switch: switch-model registry key.
        hermes_config: forwarded when scheme == "hermes".
        prefill_rules: background rules installed before time starts.
        batch_window: when set, FlowMods arriving within the same window
            are submitted as one batch (gives Tango/ESPRES reordering and
            aggregation opportunities, as their controller-side batching
            would); None submits each FlowMod as a batch of one.
        seed: RNG seed for latency noise.

    The replay records to the ambient tracer (see
    :func:`~repro.obs.tracer.use_tracer`).
    """
    installer = make_installer(
        scheme,
        get_switch_model(switch),
        rng=np.random.default_rng(seed),
        hermes_config=replace(hermes_config) if hermes_config is not None else None,
    )
    if prefill_rules:
        installer.prefill(list(prefill_rules))
    agent = SwitchAgent(installer, name=f"{scheme}@{switch}")
    response_times: List[float] = []
    execution_latencies: List[float] = []

    def submit(window: List[TimedFlowMod]) -> None:
        for action in agent.submit_batch(
            [item.flow_mod for item in window], at_time=window[0].time
        ):
            response_times.append(action.response_time)
            execution_latencies.append(action.result.latency)

    window: List[TimedFlowMod] = []
    for timed in trace:
        if window and (
            batch_window is None or timed.time - window[0].time > batch_window
        ):
            submit(window)
            window = []
        window.append(timed)
    if window:
        submit(window)
    return ReplayOutcome(
        response_times=response_times,
        execution_latencies=execution_latencies,
        agent=agent,
    )
