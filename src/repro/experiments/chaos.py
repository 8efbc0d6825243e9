"""Extension: chaos sweep — scheme x control-channel drop rate.

The paper assumes the southbound channel delivers every FlowMod.  This
experiment drops that assumption: FlowMods are dropped (sometimes after the
switch applied them — the lost-ack case), duplicated, and delayed, at a
swept rate, against two delivery disciplines:

* the **naive** channel (fire-and-forget, the seed behaviour): a dropped
  install is gone, and the affected hop blackholes traffic;
* the **resilient** channel: timeout/backoff retransmission with xid-based
  dedup, so a lost ack cannot double-install and a dropped FlowMod is
  redelivered until it lands.

Expected shape: with the resilient channel the lost-install count is zero
at every drop rate (paid for in retries and in tail installation latency),
while the naive channel loses installs roughly in proportion to the drop
rate.  Hermes's guarantee machinery is orthogonal to the channel and keeps
working under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis import ExperimentResult, verify_installer
from ..analysis.violations import DUPLICATE_ENTRY, PRIORITY_INVERSION
from ..baselines import make_installer
from ..faults import FaultInjector, FaultPlan, FlowModFault, TcamWriteFault
from ..obs import OnlineVerifier, RecordingTracer, use_tracer
from ..simulator import Simulation, SimulationConfig, TeAppConfig
from ..switchsim import ChannelConfig
from ..tcam import get_switch_model
from ..topology import FatTreeSpec, build_fat_tree, hosts
from ..traffic import flows_of, generate_jobs
from .common import default_hermes_config

SCHEMES: Tuple[Tuple[str, str, str], ...] = (
    ("raw switch", "naive", "naive"),
    ("raw + resilient", "naive", "resilient"),
    ("Hermes", "hermes", "naive"),
    ("Hermes + resilient", "hermes", "resilient"),
)


@dataclass
class ChaosConfig:
    """Workload and fault-plan knobs of the sweep."""

    fat_tree_k: int = 4
    link_capacity: float = 1e9
    job_count: int = 12
    drop_rates: Tuple[float, ...] = (0.0, 0.1, 0.25)
    ack_loss_fraction: float = 0.3
    duplicate: float = 0.02
    tcam_silent: float = 0.0
    switch: str = "pica8-p3290"
    max_time: float = 8.0
    seed: int = 11


def verify_simulation(simulation) -> List[dict]:
    """Run the shared ruleset verifier over every agent's installer.

    All invariant checking goes through
    :func:`repro.analysis.verifier.verify_installer` (the same analyzer
    the tests and the snapshot CLI use) rather than ad-hoc assertions;
    the structured violation records come back as dicts ready for the
    experiment result's ``extras``.
    """
    violations: List[dict] = []
    for name in sorted(simulation.controller.agents):
        agent = simulation.controller.agents[name]
        for violation in verify_installer(agent.installer):
            entry = violation.to_dict()
            entry["switch"] = name
            violations.append(entry)
    return violations


def chaos_simulation(
    scheme: str, channel: str, drop_rate: float, config: ChaosConfig
) -> Simulation:
    """One (scheme, channel, drop-rate) cell's simulation, built but not run.

    MapReduce jobs on a fat tree; FlowMods drop with probability
    ``drop_rate`` (``ack_loss_fraction`` of drops lose only the ack) and
    duplicate with ``config.duplicate``.  The ``resilient`` channel
    retransmits; ``naive`` is fire-and-forget.  The fault injector is
    ``simulation.injector``.  Building records nothing to the tracer, so
    the caller may trace the run alone.
    """
    graph = build_fat_tree(
        FatTreeSpec(k=config.fat_tree_k, link_capacity=config.link_capacity)
    )
    flows = flows_of(
        generate_jobs(
            hosts(graph),
            job_count=config.job_count,
            arrival_rate=6.0,
            rng=np.random.default_rng(config.seed),
        )
    )
    plan = FaultPlan(
        flowmod=FlowModFault(
            drop=drop_rate,
            ack_loss_fraction=config.ack_loss_fraction,
            duplicate=config.duplicate,
        ),
        tcam=TcamWriteFault(silent=config.tcam_silent),
    )
    injector = FaultInjector(plan=plan, seed=config.seed)
    sim_config = SimulationConfig(
        te=TeAppConfig(epoch=0.25),
        baseline_occupancy=200,
        max_time=config.max_time,
        channel_config=ChannelConfig() if channel == "resilient" else None,
        fault_plan=plan,
        fault_seed=config.seed,
    )
    timing = get_switch_model(config.switch)
    hermes_config = default_hermes_config() if scheme == "hermes" else None
    factory = lambda name: make_installer(
        scheme, timing, hermes_config=hermes_config, injector=injector
    )
    return Simulation(graph, flows, factory, sim_config, injector=injector)


def run_cell(
    scheme: str, channel: str, drop_rate: float, config: ChaosConfig
):
    """Run and score one (scheme, channel, drop-rate) cell.

    The retry and injected-loss columns are counts of the injector's
    fault log, where the channel records each redelivery and the injector
    each drop.  The cell runs under a
    :class:`~repro.obs.RecordingTracer` so that an
    :class:`~repro.obs.OnlineVerifier` listening on it re-checks table
    invariants *during* the run on a sampled schedule, catching the first
    violating sim-instant instead of only the end state.

    Returns the measured row tail, then the verifier's structured
    violation records, then an observability dict (online-verification
    report plus the fault log's counts by kind).
    """
    simulation = chaos_simulation(scheme, channel, drop_rate, config)
    tracer = RecordingTracer(
        meta={
            "experiment": "chaos",
            "scheme": scheme,
            "channel": channel,
            "drop_rate": drop_rate,
            "seed": config.seed,
        }
    )
    verifier = OnlineVerifier(
        {
            name: agent.installer
            for name, agent in simulation.controller.agents.items()
        }
    )
    with use_tracer(tracer):
        verifier.attach(tracer)
        metrics = simulation.run()
    log = simulation.injector.log
    drops = log.count("flowmod-drop") + log.count("flowmod-ack-loss")
    retries = log.count("retry")
    violations = verify_simulation(simulation)
    invariant = sum(
        1 for entry in violations if entry["kind"] == PRIORITY_INVERSION
    )
    duplicates = sum(
        1 for entry in violations if entry["kind"] == DUPLICATE_ENTRY
    )
    observability = {
        "online": verifier.report(),
        "counters": log.counts(),
    }
    return (
        len(metrics.rits()),
        retries,
        drops,
        metrics.undelivered_total(),
        duplicates,
        invariant,
        round(simulation.blackhole_time * 1e3, 3),
        violations,
        observability,
    )


def run(config: ChaosConfig = ChaosConfig()) -> ExperimentResult:
    """Sweep drop rate x scheme and tabulate loss/recovery behaviour.

    Every cell's end-state tables are checked with the shared ruleset
    verifier; the structured violation records (normally empty) land in
    the result's ``extras["violations"]``, keyed by cell.  Each cell also
    contributes its online-verification report
    (``extras["online_verification"]``) and its fault log's counts by kind
    (``extras["metrics"]``).
    """
    rows: List[tuple] = []
    violations_by_cell = {}
    online_by_cell = {}
    metrics_by_cell = {}
    for label, scheme, channel in SCHEMES:
        for drop_rate in config.drop_rates:
            cell = run_cell(scheme, channel, drop_rate, config)
            rows.append((label, drop_rate) + cell[:-2])
            key = f"{label} @ {drop_rate}"
            if cell[-2]:
                violations_by_cell[key] = cell[-2]
            online_by_cell[key] = cell[-1]["online"]
            metrics_by_cell[key] = cell[-1]["counters"]
    return ExperimentResult(
        extras={
            "violations": violations_by_cell,
            "online_verification": online_by_cell,
            "metrics": metrics_by_cell,
        },
        experiment_id="Extension (chaos)",
        title="Installs lost vs. control-channel drop rate, by scheme",
        headers=[
            "scheme",
            "drop rate",
            "installs",
            "retries",
            "injected losses",
            "lost installs",
            "dup entries",
            "invariant violations",
            "blackhole (ms)",
        ],
        rows=rows,
        notes=(
            "'injected losses' counts FlowMod deliveries the fault plan "
            "dropped (including applied-but-unacked ones); 'lost installs' "
            "counts FlowMods that never took effect on their switch. The "
            "resilient channel holds lost installs at zero by redelivering "
            "(the retries column is the price), and its xid dedup keeps "
            "'dup entries' at zero even though lost acks force "
            "redeliveries of already-applied FlowMods. Fire-and-forget "
            "loses installs at roughly the drop rate and blackholes "
            "traffic at failed hops."
        ),
    )
