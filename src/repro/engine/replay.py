"""Trace-driven replay: re-execute a recorded run on the kernel.

Every traced simulation leaves a ``hermes-trace/1`` file whose
``agent.action`` spans record, per switch, exactly when each FlowMod hit
the switch CPU and what command it carried.  This module closes the loop
the ROADMAP asked for: it reconstructs a timed workload from those spans,
re-executes it — against *any* scheme and switch model — on the shared
engine clock (all switches co-simulating in one
:class:`~repro.engine.scheduler.EventScheduler` timeline), and records a
fresh trace so the two runs diff stage-by-stage with ``python -m repro.obs
diff``.

Traces do not carry rule contents (spans record commands, not matches), so
the workload synthesizes deterministic stand-in rules: the *n*-th ADD on a
switch installs an exact-match rule keyed by *n* with the controller's TE
priority spread, and each DELETE removes the oldest live synthesized rule
on that switch (controller deletions are FIFO per flow).  The replay
therefore preserves the recorded arrival process, command mix, and
per-switch interleaving — the inputs that drive queueing and TCAM cost —
while the scheme/model under test supplies the latencies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .clock import Clock
from .scheduler import EventScheduler


@dataclass(frozen=True)
class ReplayAction:
    """One recorded control-plane action, in trace order.

    Attributes:
        time: when the FlowMod reached the switch (the span's start).
        switch: recorded switch name.
        command: ``add`` / ``modify`` / ``delete``.
        xid: the recorded transaction id (None when the channel did not
            stamp one).
    """

    time: float
    switch: str
    command: str
    xid: Optional[int] = None


@dataclass
class ReplayReport:
    """Outcome of replaying a recorded trace against a fresh scheme.

    Attributes:
        scheme: installer scheme the workload was replayed against.
        switch_model: switch-model registry key used for every agent.
        switches: recorded switch names, in first-appearance order.
        actions: reconstructed actions (the replayed workload).
        executed: FlowMods actually submitted.
        skipped: DELETE/MODIFY actions dropped because no synthesized rule
            was live on their switch (trailing deletes of prefilled state).
        response_times: per-action queueing-inclusive times, in execution
            order across all switches.
        tracer: the recording tracer of the replayed run (None when the
            caller did not ask for one).
    """

    scheme: str
    switch_model: str
    switches: List[str] = field(default_factory=list)
    actions: List[ReplayAction] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    response_times: List[float] = field(default_factory=list)
    tracer: object = None


def actions_from_records(records: Sequence[dict]) -> List[ReplayAction]:
    """Extract the recorded control-plane actions from trace records.

    Returns one :class:`ReplayAction` per ``agent.action`` span, ordered by
    ``(start time, record position)`` — spans emit on finish, so record
    order alone is completion order, not submission order.
    """
    actions: List[Tuple[float, int, ReplayAction]] = []
    for position, record in enumerate(records):
        if record.get("type") != "span" or record.get("name") != "agent.action":
            continue
        attrs = record.get("attrs", {})
        switch = attrs.get("switch")
        if switch is None:
            continue
        action = ReplayAction(
            time=float(record["start"]),
            switch=str(switch),
            command=str(attrs.get("command", "add")),
            xid=attrs.get("xid"),
        )
        actions.append((action.time, position, action))
    actions.sort(key=lambda item: (item[0], item[1]))
    return [action for _, _, action in actions]


def reconstruct_workload(records: Sequence[dict]):
    """Rebuild per-switch timed FlowMod workloads from trace records.

    Returns ``(workloads, skipped)`` where ``workloads`` maps each switch
    name to its list of :class:`~repro.traffic.TimedFlowMod`, in time
    order, with deterministically synthesized rules; ``skipped`` counts
    recorded deletes/modifies that addressed pre-trace (unsynthesized)
    state and were dropped.
    """
    from ..switchsim.messages import FlowMod
    from ..tcam.rule import Action, Rule
    from ..tcam.ternary import TernaryMatch
    from ..traffic import TimedFlowMod

    workloads: Dict[str, List] = {}
    live_rules: Dict[str, deque] = {}
    add_counts: Dict[str, int] = {}
    skipped = 0
    for action in actions_from_records(records):
        timeline = workloads.setdefault(action.switch, [])
        live = live_rules.setdefault(action.switch, deque())
        if action.command == "add":
            ordinal = add_counts.get(action.switch, 0)
            add_counts[action.switch] = ordinal + 1
            rule = Rule(
                match=TernaryMatch(
                    value=ordinal & 0xFFFFFFFF, mask=0xFFFFFFFF, width=32
                ),
                priority=100 + (ordinal % 64),
                action=Action.output(1),
            )
            live.append(rule)
            timeline.append(
                TimedFlowMod(time=action.time, flow_mod=FlowMod.add(rule))
            )
        elif action.command == "delete":
            if not live:
                skipped += 1
                continue
            rule = live.popleft()
            timeline.append(
                TimedFlowMod(
                    time=action.time, flow_mod=FlowMod.delete(rule.rule_id)
                )
            )
        elif action.command == "modify":
            if not live:
                skipped += 1
                continue
            rule = live[0]
            timeline.append(
                TimedFlowMod(
                    time=action.time,
                    flow_mod=FlowMod.modify(rule.rule_id, action=Action.output(2)),
                )
            )
        else:
            skipped += 1
    return workloads, skipped


def replay_records(
    records: Sequence[dict],
    scheme: str,
    switch_model: str,
    hermes_config=None,
    seed: int = 7,
    prefill: int = 0,
    tracer=None,
) -> ReplayReport:
    """Replay the recorded workload against ``scheme`` on ``switch_model``.

    Every recorded switch gets a fresh agent over a fresh installer; all
    agents share one kernel :class:`~repro.engine.clock.Clock`, and the
    merged timeline is dispatched through one
    :class:`~repro.engine.scheduler.EventScheduler` — the recorded
    interleaving across switches is preserved exactly.

    Args:
        records: trace records (from
            :func:`repro.obs.export.parse_trace_lines` / ``read_trace``).
        scheme: installer scheme to re-execute against.
        switch_model: switch-model registry key for every agent.
        hermes_config: forwarded when the scheme needs one.
        seed: base seed for per-switch installer latency streams.
        prefill: background rules pre-installed per switch (match the
            original run's ``baseline_occupancy`` for comparable numbers).
        tracer: optional :class:`~repro.obs.RecordingTracer` installed as
            the ambient tracer while the workload runs, capturing the
            replayed run (pass one, write it out, and ``python -m
            repro.obs diff`` the two files); None keeps the ambient one.
    """
    from dataclasses import replace as dc_replace

    from ..baselines import make_installer
    from ..obs.tracer import get_tracer, use_tracer
    from ..simulator.controller import background_rules
    from ..switchsim.agent import SwitchAgent
    from ..tcam import get_switch_model
    from .rng import RngStreams

    workloads, skipped = reconstruct_workload(records)
    clock = Clock()
    scheduler = EventScheduler(clock)
    streams = RngStreams(seed)
    timing = get_switch_model(switch_model)
    agents: Dict[str, SwitchAgent] = {}
    for switch in workloads:
        installer = make_installer(
            scheme,
            timing,
            rng=streams.stream(f"installer:{switch}"),
            hermes_config=(
                dc_replace(hermes_config) if hermes_config is not None else None
            ),
        )
        if prefill:
            installer.prefill(background_rules(prefill))
        agents[switch] = SwitchAgent(installer, name=switch, clock=clock)
        for timed in workloads[switch]:
            scheduler.schedule(timed.time, "flowmod", (switch, timed.flow_mod))

    report = ReplayReport(
        scheme=scheme,
        switch_model=switch_model,
        switches=list(workloads),
        actions=actions_from_records(records),
        skipped=skipped,
        tracer=tracer,
    )
    # The agents, Hermes, its Rule Manager and the fault log all record
    # to the ambient tracer.
    with use_tracer(tracer if tracer is not None else get_tracer()):
        while scheduler:
            event = scheduler.pop()
            clock.advance_to(event.time)
            switch, flow_mod = event.payload
            completed = agents[switch].submit(flow_mod, at_time=event.time)
            report.executed += 1
            report.response_times.append(completed.response_time)
    return report


def replay_file(
    trace_path: str,
    scheme: str,
    switch_model: str,
    out_path: Optional[str] = None,
    hermes_config=None,
    seed: int = 7,
    prefill: int = 0,
) -> ReplayReport:
    """Read a ``hermes-trace/1`` file, replay it, optionally write the new
    trace to ``out_path`` (ready for ``python -m repro.obs diff``)."""
    from ..obs.export import read_trace, write_trace
    from ..obs.tracer import RecordingTracer

    header, records = read_trace(trace_path)
    tracer = RecordingTracer(
        meta={
            "replay_of": trace_path,
            "source_meta": header.get("meta", {}),
            "scheme": scheme,
            "switch_model": switch_model,
            "seed": seed,
        }
    )
    report = replay_records(
        records,
        scheme,
        switch_model,
        hermes_config=hermes_config,
        seed=seed,
        prefill=prefill,
        tracer=tracer,
    )
    if out_path is not None:
        write_trace(tracer, out_path)
    return report
