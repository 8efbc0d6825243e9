"""The benchmark's three workloads: inputs from a seed, set-up, run, outputs.

Each workload is a fixed number of independent *instances* (simulations or
replays), all built from the one ``--seed``.  A round sets up and runs every
instance once; rounds repeat the same inputs, so their simulated results
must be identical.  Every instance runs the default Hermes configuration
(cubic spline, slack 100%, 5 ms guarantee) on the Pica8 P-3290, and leaves
``flow_state``/``completion_mode`` at the simulator's defaults.

See ``README.md`` in this directory for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bgp import BgpRouter, generate_updates, get_router_profile
from repro.experiments.common import (
    QUICK_SCALE,
    WorkloadScale,
    default_hermes_config,
    installer_factory,
    isp_workload,
    te_simulation_config,
)
from repro.simulator import Simulation
from repro.switchsim import AgentDownError, FlowModCommand, SwitchAgent
from repro.tcam import TableFullError
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import TimedFlowMod, flows_of, generate_jobs

GUARANTEE_S = 5e-3
SWITCH = "pica8-p3290"

# What a FlowMod may raise.  RuleNotFoundError is a KeyError, and Hermes
# raises a plain KeyError for a delete or modify of an unknown rule.
FLOWMOD_ERRORS = (TableFullError, AgentDownError, KeyError)


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` well-mixed instance seeds drawn from one workload seed."""
    return [int(word) for word in np.random.SeedSequence(seed).generate_state(count)]


def digest(payload) -> str:
    """sha256 of a JSON-encodable value (floats in full precision)."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass
class Outcome:
    """What one instance produced.  Simulated values only, except the times."""

    attempted: int
    failed: int
    add_rits: List[float]
    responses: List[float]
    fcts: List[float] = field(default_factory=list)
    jcts: List[float] = field(default_factory=list)
    flows: int = 0
    completed: int = 0
    state: Dict[str, float] = field(default_factory=dict)
    reasons: Dict[str, int] = field(default_factory=dict)
    setup_s: float = 0.0
    run_s: float = 0.0
    setup_pace: Optional[float] = None  # see pace.py
    run_pace: Optional[float] = None
    verify_s: float = 0.0
    findings: int = 0

    @property
    def digest(self) -> str:
        return digest(
            [
                self.attempted, self.failed, self.add_rits, self.responses,
                self.fcts, self.jcts, self.completed, sorted(self.state.items()),
            ]
        )


def table_counts(installers) -> Tuple[int, int]:
    """(TCAM writes, entry shifts) so far across both slices of each installer."""
    writes = shifts = 0
    for installer in installers:
        for table in (installer.shadow, installer.main):
            stats = table.stats
            writes += stats.insertions + stats.deletions + stats.modifications
            shifts += stats.total_shifts
    return writes, shifts


def layer_state(installers, agents, channels, writes_before: Tuple[int, int]) -> Dict[str, float]:
    """The per-layer counts the program's public state exposes after a run."""
    writes, shifts = table_counts(installers)
    migrations = [report for i in installers for report in i.rule_manager.migrations]
    admitted = sum(i.gate_keeper.admitted for i in installers)
    diverted = sum(i.gate_keeper.diverted for i in installers)
    return {
        "agent.queue_wait_sim_s": sum(agent.stats.queue_time for agent in agents),
        "agent.busy_sim_s": sum(agent.stats.busy_time for agent in agents),
        "agent.background_sim_s": sum(agent.stats.background_time for agent in agents),
        "channel.retries": sum(channel.stats.retries for channel in channels),
        "rule_manager.migrations": len(migrations),
        "rule_manager.rules_written": sum(r.rules_written for r in migrations),
        "rule_manager.merged_away": sum(r.rules_merged_away for r in migrations),
        "gatekeeper.admitted": admitted,
        "gatekeeper.diverted": diverted,
        "tcam.writes": writes - writes_before[0],
        "tcam.shifts": shifts - writes_before[1],
    }


def add_counts(total: dict, part: dict) -> dict:
    """Add ``part``'s values into ``total`` key by key; returns ``total``."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def gate_reasons(installers) -> Dict[str, int]:
    reasons: Dict[str, int] = {}
    for installer in installers:
        add_counts(reasons, installer.gate_keeper.reason_counts)
    return dict(sorted(reasons.items()))


# ----------------------------------------------------------------------
# TE simulations (geant-te, fattree-mapreduce)
# ----------------------------------------------------------------------
@dataclass
class TeInput:
    graph: object
    flows: list
    config: object
    noise_seed: int


@dataclass
class TeSystem:
    simulation: Simulation
    flows: int
    writes_before: Tuple[int, int]

    @property
    def installers(self):
        return [agent.installer for agent in self.simulation.controller.agents.values()]


class Workload:
    """A named set of instances: ``inputs`` from a seed, then per instance
    ``setup`` (timed as set-up), ``execute`` (timed as run) and ``finish``."""

    name = ""
    instances = 1
    has_flows = False
    has_jobs = False

    def verify(self, system) -> int:
        """Ruleset-verifier findings across the instance's switches."""
        return sum(len(installer.verify()) for installer in system.installers)


class TeWorkload(Workload):
    """A Varys TE simulation per instance."""

    has_flows = True

    def setup(self, inp: TeInput) -> TeSystem:
        factory = installer_factory(
            "hermes", SWITCH, default_hermes_config(), seed=inp.noise_seed
        )
        simulation = Simulation(inp.graph, list(inp.flows), factory, inp.config)
        installers = [agent.installer for agent in simulation.controller.agents.values()]
        return TeSystem(simulation, len(inp.flows), table_counts(installers))

    def execute(self, system: TeSystem) -> int:
        """Run the simulation; returns FlowMods that raised (0, or 1 when
        one aborted the run)."""
        try:
            system.simulation.run()
        except FLOWMOD_ERRORS:
            return 1
        return 0

    def finish(self, system: TeSystem, raised: int) -> Outcome:
        simulation = system.simulation
        metrics = simulation.metrics
        agents = list(simulation.controller.agents.values())
        responses = [done.response_time for agent in agents for done in agent.history()]
        undelivered = metrics.undelivered_total()
        installers = system.installers
        fcts = metrics.fcts()
        return Outcome(
            attempted=len(responses) + undelivered + raised,
            failed=undelivered + raised,
            add_rits=metrics.rits(),
            responses=responses,
            fcts=fcts,
            jcts=sorted(metrics.jcts().values()),
            flows=system.flows,
            completed=len(fcts),
            state=layer_state(
                installers, agents, simulation.controller.channels.values(),
                system.writes_before,
            ),
            reasons=gate_reasons(installers),
        )


class GeantTe(TeWorkload):
    """The fig08/fig09 ISP setup: Geant gravity TM as flows, 10 ms WAN RTT.

    Each instance offers 3 s of flows (the canned fig08 profiling size)
    from one of four fixed traffic matrices, those of workload seeds 0-3.
    The RIT tail comes from queueing bursts at TE epochs and swings widely
    between matrices, and so does the host work: with four matrices drawn
    per seed, FlowMods per run spread 15% and the RIT p99 27% between
    seeds.  So the matrices are fixed and the seed draws each instance's
    TCAM latency noise, as for bgp-fib.
    """

    name = "geant-te"
    instances = 4

    def inputs(self, seed: int) -> List[TeInput]:
        inputs = []
        for index, sub in enumerate(sub_seeds(seed, self.instances)):
            scale = WorkloadScale(seed=index, isp_flow_duration=3.0)
            graph, flows = isp_workload("geant", scale)
            inputs.append(
                TeInput(graph, flows, te_simulation_config(scale, control_rtt=10e-3), sub)
            )
        return inputs


class FatTreeMapReduce(TeWorkload):
    """The fig01/fig08 data-center setup: Facebook MapReduce on a k=4 fat tree.

    Job sizes are heavy-tailed, so with 40 jobs the size draw alone moves
    host time several-fold between seeds.  Every instance therefore runs
    the canonical quick-scale job trace, placed on the fat tree's hosts by
    one of three fixed permutations (those of permutation seeds 0-2).
    Drawing the placements per seed still moved the RIT p99 by 17%
    between seeds, so the seed draws each instance's TCAM latency noise,
    as for bgp-fib.
    """

    name = "fattree-mapreduce"
    instances = 3
    has_jobs = True

    def inputs(self, seed: int) -> List[TeInput]:
        scale = QUICK_SCALE
        inputs = []
        for index, sub in enumerate(sub_seeds(seed, self.instances)):
            graph = build_fat_tree(
                FatTreeSpec(k=scale.fat_tree_k, link_capacity=scale.link_capacity)
            )
            servers = list(hosts(graph))
            order = np.random.default_rng(index).permutation(len(servers))
            jobs = generate_jobs(
                [servers[index] for index in order],
                job_count=scale.job_count,
                arrival_rate=scale.job_arrival_rate,
                rng=np.random.default_rng(scale.seed),
            )
            inputs.append(TeInput(graph, flows_of(jobs), te_simulation_config(scale), sub))
        return inputs


# ----------------------------------------------------------------------
# BGP FIB replay (bgp-fib)
# ----------------------------------------------------------------------
ROUTER = "equinix-chicago"
STREAM_SECONDS = 60.0
STREAM_SEED = 11  # the Section 8.4 experiment's stream


def compile_fib_trace(updates) -> List[TimedFlowMod]:
    """BGP updates -> timed FIB FlowMods, independent of the hash seed.

    ``Fib.port_for`` falls back to ``hash(peer)``, which changes with
    ``PYTHONHASHSEED``; an explicit port map over the sorted peers pins it.
    """
    peers = sorted({update.peer for update in updates})
    router = BgpRouter(port_of_peer={peer: index % 64 + 1 for index, peer in enumerate(peers)})
    return [
        TimedFlowMod(time=update.time, flow_mod=flow_mod)
        for update in updates
        for flow_mod in router.process(update)
    ]


def trace_digest(trace: Sequence[TimedFlowMod]) -> str:
    """Digest of a FIB trace that ignores process-global rule ids."""
    ordinal: Dict[int, int] = {}
    rows = []
    for timed in trace:
        mod = timed.flow_mod
        if mod.command is FlowModCommand.ADD:
            ordinal[mod.rule.rule_id] = len(ordinal)
            rows.append([timed.time, "add", str(mod.rule.match), mod.rule.priority, mod.rule.action.port])
        else:
            port = mod.new_action.port if mod.new_action is not None else None
            rows.append([timed.time, mod.command.value, ordinal[mod.rule_id], port])
    return digest(rows)


@dataclass
class BgpSystem:
    agent: SwitchAgent
    trace: List[TimedFlowMod]
    writes_before: Tuple[int, int]

    @property
    def installers(self):
        return [self.agent.installer]


class BgpFib(Workload):
    """Section 8.4: a BGP router's FIB churn replayed on one Hermes switch.

    The update stream is the canonical Equinix-Chicago stream of the
    Section 8.4 experiment.  Its bursts put Hermes's queue near saturation,
    so a different stream per seed moves the RIT tail by an order of
    magnitude; the seed draws the switch's TCAM latency noise instead, one
    independent noise stream per replica.  Four replicas hold the RIT p99
    within about ten percent across seeds.
    """

    name = "bgp-fib"
    instances = 4

    def inputs(self, seed: int) -> List[Tuple[list, int]]:
        updates = generate_updates(
            get_router_profile(ROUTER), STREAM_SECONDS,
            rng=np.random.default_rng(STREAM_SEED),
        )
        return [(updates, sub) for sub in sub_seeds(seed, self.instances)]

    def setup(self, inp) -> BgpSystem:
        updates, noise_seed = inp
        trace = compile_fib_trace(updates)
        factory = installer_factory(
            "hermes", SWITCH, default_hermes_config(), seed=noise_seed
        )
        agent = SwitchAgent(factory(ROUTER), name=ROUTER)
        return BgpSystem(agent, trace, table_counts([agent.installer]))

    def execute(self, system: BgpSystem) -> int:
        """Submit every FlowMod at its timestamp (open loop); returns the
        number that raised."""
        failed = 0
        submit = system.agent.submit
        for timed in system.trace:
            try:
                submit(timed.flow_mod, at_time=timed.time)
            except FLOWMOD_ERRORS:
                failed += 1
        return failed

    def finish(self, system: BgpSystem, raised: int) -> Outcome:
        history = system.agent.history()
        installers = system.installers
        return Outcome(
            attempted=len(system.trace),
            failed=raised,
            add_rits=[
                done.response_time for done in history
                if done.flow_mod.command is FlowModCommand.ADD
            ],
            responses=[done.response_time for done in history],
            state=layer_state(installers, [system.agent], (), system.writes_before),
            reasons=gate_reasons(installers),
        )


WORKLOADS = {w.name: w for w in (GeantTe(), FatTreeMapReduce(), BgpFib())}
