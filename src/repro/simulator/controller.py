"""The SDN controller model.

The controller owns one :class:`~repro.switchsim.agent.SwitchAgent` per
switch in the topology — each wrapping whichever installer scheme the run
evaluates (naive / Hermes / Tango / ESPRES) — and converts TE decisions into
per-switch FlowMods.  Control-channel RTT is modelled explicitly: the
paper's observation that "the benefits of Hermes are more pronounced ...
where RTTs are small (e.g. in the data center)" falls out of this term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..engine.clock import Clock
from ..obs.tracer import get_tracer
from ..switchsim.agent import SwitchAgent
from ..switchsim.channel import (
    Channel,
    ChannelConfig,
    NaiveChannel,
    ResilientChannel,
)
from ..switchsim.installer import RuleInstaller
from ..switchsim.messages import FlowMod
from ..tcam.rule import Action, Rule
from ..tcam.ternary import TernaryMatch
from ..topology.routing import Path, path_switches
from ..traffic.flows import FlowSpec

InstallerFactory = Callable[[str], RuleInstaller]


def background_triples(count: int) -> List[Tuple[TernaryMatch, int, Action]]:
    """The prefill rule set: ``count`` low-priority /24s over 10.0.0.0/8.

    The ``index``-th ``(match, priority, action)`` triple matches
    ``10.<index // 256 % 256>.<index % 256>.0/24`` at priority
    ``10 + index % 80``, below every TE override rule.
    """
    return [
        (
            TernaryMatch((10 << 24) | ((index & 0xFFFF) << 8), 0xFFFFFF00),
            10 + (index % 80),
            Action.output((index % 8) + 1),
        )
        for index in range(count)
    ]


def background_rules(count: int) -> List[Rule]:
    """The prefill rule set as fresh rules (see :func:`background_triples`)."""
    return [Rule(*triple) for triple in background_triples(count)]


def flow_match(flow: FlowSpec) -> TernaryMatch:
    """The exact-match TCAM key identifying one flow.

    Flow-level simulation does not model packet headers; each flow gets a
    unique 32-bit key (its flow id), matched exactly.
    """
    return TernaryMatch(
        value=flow.flow_id & 0xFFFFFFFF, mask=0xFFFFFFFF, width=32
    )


def flow_rule_priority(flow: FlowSpec) -> int:
    """Priority of a flow's TE override rules.

    TE rules override default (low-priority) routing; spreading them over a
    priority band makes inserts land mid-table, exercising the TCAM's
    shifting behaviour the way real multi-tenant rule sets do.
    """
    return 100 + (flow.flow_id % 64)


@dataclass
class InstallOutcome:
    """Result of installing one flow's rules along a path.

    Attributes:
        ready_time: when the new path is fully programmed (all switches
            done) and the flow may switch over.
        per_switch_rits: rule-installation time at each switch touched.
        undelivered: FlowMods that never took effect on their switch —
            blackholed installs on a lossy channel.
        rules: ``(switch, rule id)`` of every rule delivered — the only
            record of which rules the flow owns, and what
            :meth:`SdnController.remove_flow_rules` later deletes.
    """

    ready_time: float
    per_switch_rits: List[float] = field(default_factory=list)
    undelivered: int = 0
    rules: List[Tuple[str, int]] = field(default_factory=list)


class SdnController:
    """Programs the network through per-switch agents."""

    def __init__(
        self,
        graph: nx.Graph,
        installer_factory: InstallerFactory,
        control_rtt: float = 0.25e-3,
        injector=None,
        channel_config: Optional[ChannelConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        """Create agents for every switch in ``graph``.

        Args:
            graph: the topology; nodes with kind != "host" get agents.
            installer_factory: builds the per-switch installer (one fresh
                instance per switch) — this selects the scheme under test.
            control_rtt: controller<->switch round-trip in seconds
                (data-center default 250 us; WAN experiments pass more).
            injector: optional :class:`~repro.faults.injector.FaultInjector`
                shared by every agent and channel of this controller.
            channel_config: None for the naive channel (fire-and-forget,
                the seed behaviour); a :class:`ChannelConfig` selects the
                resilient channel (retry/backoff/dedup/breaker) with those
                tunables.
            clock: shared kernel clock every agent and channel derives its
                virtual time from; None creates one for this controller.
        """
        if control_rtt < 0:
            raise ValueError(f"control_rtt cannot be negative: {control_rtt}")
        if channel_config is not None and injector is None:
            raise ValueError("the resilient channel requires a fault injector")
        self.graph = graph
        self.control_rtt = control_rtt
        self.injector = injector
        self.clock = clock if clock is not None else Clock()
        self.agents: Dict[str, SwitchAgent] = {
            node: SwitchAgent(
                installer_factory(node),
                name=node,
                injector=injector,
                clock=self.clock,
            )
            for node, data in graph.nodes(data=True)
            if data.get("kind") != "host"
        }
        self.channels: Dict[str, Channel] = {}
        for node, agent in self.agents.items():
            if channel_config is not None:
                # A breaker opening means the switch stopped acking — if the
                # scheme can degrade (Hermes), tell it to stop promising.
                enter_degraded = getattr(agent.installer, "enter_degraded", None)
                self.channels[node] = ResilientChannel(
                    agent,
                    injector,
                    config=channel_config,
                    rng=injector.child_rng(f"channel:{node}"),
                    on_breaker_open=enter_degraded,
                    clock=self.clock,
                )
            else:
                self.channels[node] = NaiveChannel(
                    agent, injector=injector, clock=self.clock
                )

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def prefill_switches(self, rules_per_switch: int) -> None:
        """Pre-install background rules on every switch.

        Rules are /24 prefixes over 10.0.0.0/8 with priorities in a low
        band (below every TE override rule), so a TE insert lands above
        them and pays the occupancy-dependent shifting cost — the situation
        Table 1 measures.  The prefill charges no simulated time, but it
        draws the same latency noise and keeps the same write and shift
        counts as one insert per rule (:meth:`RuleInstaller.prefill`).
        Every switch gets fresh rules over one shared set of matches and
        actions.

        Raises:
            ValueError: when ``rules_per_switch`` is negative or does not
                fit some switch's table; nothing is written then.
        """
        if rules_per_switch < 0:
            raise ValueError("rules_per_switch cannot be negative")
        for name, agent in self.agents.items():
            table = agent.installer.prefill_table()
            if rules_per_switch > table.free_entries:
                raise ValueError(
                    f"baseline occupancy {rules_per_switch} does not fit switch "
                    f"{name!r}: its {table.name!r} table has capacity "
                    f"{table.capacity} ({table.free_entries} free)"
                )
        triples = background_triples(rules_per_switch)
        for agent in self.agents.values():
            agent.installer.prefill([Rule(*triple) for triple in triples])

    # ------------------------------------------------------------------
    # Path programming
    # ------------------------------------------------------------------
    def install_path(
        self, flow: FlowSpec, path: Path, now: float
    ) -> InstallOutcome:
        """Install one flow's path: a batch of one (see :meth:`install_paths`)."""
        return self.install_paths([(flow, path)], now)[0]

    def install_paths(
        self, assignments: Sequence[Tuple[FlowSpec, Path]], now: float
    ) -> List[InstallOutcome]:
        """Install flows' override rules as per-switch FlowMod batches.

        Controllers batch the FlowMods of one reconfiguration round; the
        per-switch batch is what gives reordering/rewriting schemes (ESPRES,
        Tango) their leverage.  Each batch reaches its switch after half an
        RTT; an assignment's path is usable once its slowest switch has
        finished (plus the returning half RTT for the barrier
        confirmation).  A lost hop does not delay the ready time: the path
        is unusable there until repair.  Returns one outcome per
        assignment, in order; each lists the rules it delivered, which the
        caller owns from then on.
        """
        per_switch: Dict[str, List[Tuple[int, Rule]]] = {}
        for index, (flow, path) in enumerate(assignments):
            for switch in path_switches(path, self.graph):
                rule = Rule(
                    match=flow_match(flow),
                    priority=flow_rule_priority(flow),
                    action=Action.output(1),
                )
                per_switch.setdefault(switch, []).append((index, rule))
        span = get_tracer().start_span(
            "install.batch", start=now, category="controller",
            assignments=len(assignments), switches=len(per_switch),
        )
        outcomes = [InstallOutcome(ready_time=now) for _ in assignments]
        for switch, entries in per_switch.items():
            sent = self.channels[switch].send_batch(
                [FlowMod.add(rule) for _, rule in entries],
                at_time=now + self.control_rtt / 2,
            )
            if not sent.completed:
                # The whole batch was lost: every assignment touching this
                # switch is missing a hop, and no rule exists to delete.
                for index, _rule in entries:
                    outcomes[index].undelivered += 1
                continue
            for (index, rule), action in zip(entries, sent.completed):
                outcome = outcomes[index]
                outcome.rules.append((switch, rule.rule_id))
                outcome.per_switch_rits.append(action.response_time)
                # The resilient channel's ack can trail the last TCAM write
                # (redelivery); the path is only usable once the controller
                # has heard back.
                done = action.finish_time
                if sent.done_time is not None:
                    done = max(done, sent.done_time)
                outcome.ready_time = max(
                    outcome.ready_time, done + self.control_rtt / 2
                )
        span.finish(
            end=max((outcome.ready_time for outcome in outcomes), default=now)
        )
        return outcomes

    def remove_flow_rules(
        self, rules: Sequence[Tuple[str, int]], now: float
    ) -> None:
        """Delete exactly ``rules``: ``(switch, rule id)`` pairs that an
        :class:`InstallOutcome` delivered."""
        for switch, rule_id in rules:
            try:
                self.channels[switch].send(
                    FlowMod.delete(rule_id), at_time=now + self.control_rtt / 2
                )
            except KeyError:
                # The rule was already evicted (e.g. subsumed at insert
                # time); deletion of a logical no-op is itself a no-op.
                pass

    # ------------------------------------------------------------------
    # Aggregate telemetry
    # ------------------------------------------------------------------
    def total_violations(self) -> int:
        """Guarantee violations across Hermes-managed switches (0 otherwise)."""
        total = 0
        for agent in self.agents.values():
            total += getattr(agent.installer, "violations", 0)
        return total
