"""Varys: the flow-level network simulator (Section 8.1.1 of the paper).

An event-driven fluid simulator: active flows hold max-min fair rates over
their current paths; a proactive TE app reconfigures paths every epoch; and
every reconfiguration pays the *control-plane action latency* of the rule
installations it needs — the quantity Hermes bounds.  A rerouted flow keeps
draining over its congested path until the new path's rules are installed
on every switch, so slow TCAMs directly inflate FCT and JCT (Figures 1, 8,
and 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..engine.clock import Clock
from ..engine.scheduler import TIER_ARRIVAL, TIER_COMPLETION, EventScheduler
from ..faults.injector import FaultInjector
from ..faults.spec import FaultPlan
from ..obs.tracer import get_tracer
from ..switchsim.channel import ChannelConfig
from ..topology.routing import Path, PathProvider, path_links
from ..traffic.flows import FlowSpec
from .controller import InstallerFactory, SdnController
# Unused here; hermesbench/layertrace.py and repro.obs.perf wrap it at
# this module path.
from .fairshare import max_min_fair_rates  # noqa: F401
from .flowstate import FlowStore
from .metrics import MetricsCollector
from .sdnapp import ProactiveTeApp, TeAppConfig


@dataclass
class SimulationConfig:
    """Run-wide parameters.

    Attributes:
        control_rtt: controller<->switch RTT in seconds.
        te: the TE application's tunables.
        k_paths: candidate paths per OD pair.
        max_time: hard stop in simulated seconds (flows still active then
            are left incomplete).
        baseline_occupancy: background rules pre-installed per switch —
            production tables are never empty, and occupancy is what makes
            TCAM inserts slow (Table 1).
        initial_path_policy: how an arriving flow picks its first path
            from its ECMP set.  ``"ecmp-hash"`` takes
            ``ecmp[flow_id % len(ecmp)]``, so routes depend on flow ids;
            ``"static"`` always takes the first path, so default routes
            collide and the TE app has congestion to relieve.
        routing_mode: ``"proactive"`` (default routing exists; only TE
            moves and failure repairs send FlowMods) or ``"reactive"``
            (each new flow punts to the controller and starts moving bytes
            only once its rules are installed; its FCT counts the wait).
        link_failures: ``((time, (node_a, node_b)), ...)``: each link
            fails at its (finite) sim time.  Flows on it blackhole until
            their repair rules are installed; arrivals and TE moves avoid
            it from then on.
        channel_config: controller→switch delivery.  None is the naive
            channel (fire-and-forget, the seed behaviour); a
            :class:`~repro.switchsim.channel.ChannelConfig` selects the
            resilient channel (retry/backoff/dedup) with those tunables.
        fault_plan: optional :class:`~repro.faults.spec.FaultPlan` injected
            into every agent, table, and channel of the run.  None (or an
            all-zero plan with the naive channel) leaves results
            byte-identical to a fault-free run.
        fault_seed: seed of the fault injector's random stream.

    Flow state always lives in a
    :class:`~repro.simulator.flowstate.FlowStore`, and completions are
    kernel events (see ``docs/architecture.md``, "The simulator's data
    path").
    """

    control_rtt: float = 0.25e-3
    te: TeAppConfig = field(default_factory=TeAppConfig)
    k_paths: int = 4
    max_time: float = math.inf
    baseline_occupancy: int = 500
    initial_path_policy: str = "ecmp-hash"
    routing_mode: str = "proactive"
    link_failures: tuple = ()  # ((time, (node_a, node_b)), ...)
    channel_config: Optional[ChannelConfig] = None
    fault_plan: Optional[FaultPlan] = None
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.control_rtt) and self.control_rtt >= 0):
            raise ValueError(f"control_rtt must be finite and >= 0: {self.control_rtt}")
        if not self.max_time >= 0:
            raise ValueError(f"max_time must be >= 0: {self.max_time}")
        if self.baseline_occupancy < 0:
            raise ValueError(
                f"baseline_occupancy cannot be negative: {self.baseline_occupancy}"
            )
        for failure_time, link in self.link_failures:
            if not math.isfinite(failure_time):
                raise ValueError(f"link {link} fails at a non-finite time: {failure_time}")
        if self.initial_path_policy not in ("ecmp-hash", "static"):
            raise ValueError(
                "initial_path_policy must be 'ecmp-hash' (hash flows over the "
                f"ECMP set) or 'static' (single default path): {self.initial_path_policy!r}"
            )
        if self.routing_mode not in ("proactive", "reactive"):
            raise ValueError(
                "routing_mode must be 'proactive' (default routing exists; "
                "only TE reconfigurations touch the control plane) or "
                "'reactive' (every new flow punts to the controller and "
                f"waits for its rules): {self.routing_mode!r}"
            )


class Simulation:
    """One simulation run: a topology, a flow workload, and an installer."""

    def __init__(
        self,
        graph: nx.Graph,
        flows: Sequence[FlowSpec],
        installer_factory: InstallerFactory,
        config: Optional[SimulationConfig] = None,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        """Set up the run.

        Args:
            graph: topology with ``capacity`` on edges and ``kind`` on nodes.
            flows: the workload, in any order.
            installer_factory: per-switch TCAM-management scheme to test.
            config: run parameters (defaults are the data-center setup).
            injector: explicit fault injector (e.g. one the installer
                factory already shares); None builds one from
                ``config.fault_plan``/``fault_seed`` when needed.
            clock: explicit kernel :class:`~repro.engine.clock.Clock` to
                run on (share one to co-simulate with other components);
                None creates a private timeline starting at zero.
        """
        self.config = config if config is not None else SimulationConfig()
        self.graph = graph
        self.provider = PathProvider(graph, k_paths=self.config.k_paths)
        if injector is None and (
            self.config.fault_plan is not None
            or self.config.channel_config is not None
        ):
            injector = FaultInjector(
                plan=self.config.fault_plan, seed=self.config.fault_seed
            )
        self.injector = injector
        self.clock = clock if clock is not None else Clock()
        self._scheduler = EventScheduler(self.clock)
        self.controller = SdnController(
            graph,
            installer_factory,
            control_rtt=self.config.control_rtt,
            injector=injector,
            channel_config=self.config.channel_config,
            clock=self.clock,
        )
        if self.config.baseline_occupancy > 0:
            self.controller.prefill_switches(self.config.baseline_occupancy)
        self.metrics = MetricsCollector()
        self._arrivals = sorted(flows, key=lambda flow: flow.start_time)
        self._arrival_index = 0
        self._store = FlowStore(
            {
                tuple(sorted((a, b))): data["capacity"]
                for a, b, data in graph.edges(data=True)
            }
        )
        self.app = ProactiveTeApp(self.provider, self._store, self.config.te)
        # flow id -> (switch, rule id) of the rules its current path uses:
        # the one record of what a flow owns, deleted when it moves on or
        # completes.  Default routes (proactive arrivals) own none.
        self.flow_rules: Dict[int, List[Tuple[str, int]]] = {}
        self._rate_epoch = 0
        self._failed_links: set = set()
        self.blackhole_time = 0.0  # flow-seconds spent on failed paths
        self.failure_repairs = 0  # flows a link failure rerouted (TE moves excluded)
        for failure_time, link in self.config.link_failures:
            self._schedule(failure_time, "fail", tuple(sorted(link)))

    @property
    def now(self) -> float:
        """Current simulated time (read-only; the kernel clock owns it)."""
        return self.clock.now

    @property
    def fault_log(self):
        """The injector's fault log, or None on fault-free runs."""
        return self.injector.log if self.injector is not None else None

    def _record_outcome(self, outcome) -> None:
        """Fold one installation outcome into the metrics."""
        for rit in outcome.per_switch_rits:
            self.metrics.record_rit(rit)
        if outcome.undelivered:
            self.metrics.record_undelivered(outcome.undelivered)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _schedule(self, time: float, kind: str, payload: object = None) -> None:
        self._scheduler.schedule(time, kind, payload)

    def _schedule_next_arrival(self) -> None:
        """Queue the workload's next arrival; one is pending at a time, so
        the heap stays small however many flows the workload holds."""
        if self._arrival_index < len(self._arrivals):
            start_time = self._arrivals[self._arrival_index].start_time
            # race: allow(schedule-order-race) -- arrivals fire in the workload's stable start-time order, one pending at a time
            self._scheduler.schedule(start_time, "arrive", tier=TIER_ARRIVAL)

    def _schedule_completion(self) -> None:
        """Re-arm the earliest completion for the new rate epoch.

        Every rate recompute starts a new epoch; completion events carry
        the epoch they were computed under, and stale ones are discarded
        on peek.  Only the argmin is scheduled — when it fires, the resulting
        recompute re-arms the next one.  ETA ties resolve to the
        earliest-admitted flow (argmin over admission-ordered rows).
        """
        self._rate_epoch += 1
        best_time, best_flow = self._store.next_completion(self.now)
        if best_flow is not None:
            self._scheduler.schedule(
                best_time,
                "complete",
                (best_flow, self._rate_epoch),
                tier=TIER_COMPLETION,
            )

    def _advance_to(self, time: float) -> None:
        """Drain bytes at current rates up to ``time``."""
        elapsed = time - self.now
        if elapsed > 0:
            self._store.advance(elapsed)
        self.clock.advance_to(time)

    def _recompute_rates(self) -> None:
        self._store.recompute()
        self._schedule_completion()

    def _recompute_after_admission(self, spec: FlowSpec) -> None:
        """Recompute rates after admitting ``spec``, batching same-instant
        arrival bursts.

        When the *next* arrival shares this exact instant and no kernel
        event can fire in between, the next dispatch is provably that
        arrival — whose own recompute covers this one, so skipping here
        is unobservable (rates are only read at dispatches).  That next
        arrival is not queued yet, so an empty heap at this instant means
        nothing else can fire first.  The one exception is a zero-size
        flow, which must complete before the next same-instant arrival
        and therefore keeps the eager recompute.  This turns an N-flow
        burst from N progressive fillings into one.
        """
        if (
            spec.size > 0
            and self._arrival_index < len(self._arrivals)
            # det: allow(float-eq) -- batching exact same-instant arrivals
            and self._arrivals[self._arrival_index].start_time == self.now
            and self._scheduler.next_time() > self.now
        ):
            return
        self._recompute_rates()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> MetricsCollector:
        """Run to completion (or ``max_time``); returns the metrics."""
        self._schedule(self.config.te.epoch, "epoch")
        self._schedule_next_arrival()
        self._loop()
        return self.metrics

    def _completion_is_live(self, event) -> bool:
        """True when a scheduled completion is current-epoch and the flow
        is still active (stale ones are discarded, never dispatched)."""
        flow_id, epoch = event.payload
        return epoch == self._rate_epoch and flow_id in self._store

    def _loop(self) -> None:
        """Kernel loop: every event — arrival, completion, TE epoch, path
        activation, reactive start, link failure — comes off the one heap.

        Stale completion events (superseded by a later rate epoch, or for
        an already-finished flow) are discarded on peek *without advancing
        time* — an extra advance point would add a draining step and move
        the remaining-bytes floats.  At shared instants the tiers order
        completions first, then arrivals, then everything else.
        """
        scheduler = self._scheduler
        while True:
            head = scheduler.peek()
            while (
                head is not None
                and head.tier == TIER_COMPLETION
                and not self._completion_is_live(head)
            ):
                scheduler.pop()
                head = scheduler.peek()
            if head is None or math.isinf(head.time):
                break
            if head.time > self.config.max_time:
                self._advance_to(self.config.max_time)
                break
            self._advance_to(head.time)
            self._dispatch(scheduler.pop())
            if not self._store and self._arrival_index >= len(self._arrivals):
                if not scheduler.pending(("activate", "start")):
                    break

    def _dispatch(self, event) -> None:
        """Route one event to its handler."""
        kind = event.kind
        if kind == "complete":
            # Live by construction: the loop discards stale heads first.
            self._complete_flow(event.payload[0])
        elif kind == "arrive":
            self._admit_next_flow()
            # Queued only after the admission's batching decision, which
            # must see the heap without it.
            self._schedule_next_arrival()
        elif kind == "epoch":
            self._run_te_epoch()
        elif kind == "activate":
            self._activate_path(event.payload)
        elif kind == "start":
            self._start_reactive_flow(event.payload)
        elif kind == "fail":
            self._fail_link(event.payload)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _admit_next_flow(self) -> None:
        spec = self._arrivals[self._arrival_index]
        self._arrival_index += 1
        ecmp = self.provider.ecmp_paths(spec.source, spec.destination)
        if self._failed_links:
            healthy = [
                path
                for path in ecmp
                if not any(
                    link in self._failed_links for link in path_links(path)
                )
            ]
            if healthy:
                ecmp = healthy
            else:
                fallback = self._first_healthy_path(spec)
                if fallback is not None:
                    ecmp = [fallback]
        if self.config.initial_path_policy == "static":
            # Deterministic default routing: collisions are common, so the
            # TE app has real congestion to relieve (the paper's setting).
            path = ecmp[0]
        else:
            path = ecmp[spec.flow_id % len(ecmp)]
        self.metrics.flow_started(spec, self.now)
        if self.config.routing_mode == "reactive":
            # Packet-in: the first packet punts to the controller, which
            # must install the flow's rules before any byte moves — the
            # startup latency of reactive SDN applications.  The FCT clock
            # is already running.
            outcome = self.controller.install_path(spec, path, self.now)
            self._record_outcome(outcome)
            self._schedule(
                max(outcome.ready_time, self.now),
                "start",
                (spec, path, outcome.rules),
            )
            return
        self._store.add(spec, path)
        self.metrics.record_active_peak(len(self._store))
        self._recompute_after_admission(spec)

    def _start_reactive_flow(self, payload) -> None:
        spec, path, rules = payload
        self._store.add(spec, path)
        self.flow_rules[spec.flow_id] = rules
        self.metrics.record_active_peak(len(self._store))
        self._recompute_rates()

    def _complete_flow(self, flow_id: int) -> None:
        self._store.remove(flow_id)
        self.metrics.flow_finished(flow_id, self.now)
        self.controller.remove_flow_rules(
            self.flow_rules.pop(flow_id, ()), self.now
        )
        self._recompute_rates()

    def _run_te_epoch(self) -> None:
        store = self._store
        if store:
            flow_ids, path_ids, rates = store.te_views()
            plan = self.app.plan(
                flow_ids, path_ids, rates, store.utilization(), now=self.now
            )
            moves = [move for move in plan if move.flow_id in store]
            assignments = [
                (store.spec(move.flow_id), move.new_path) for move in moves
            ]
            # One reconfiguration round = one per-switch FlowMod batch —
            # the granularity at which ESPRES/Tango reorder and rewrite.
            outcomes = self.controller.install_paths(assignments, self.now)
            for move, outcome in zip(moves, outcomes):
                self._record_outcome(outcome)
                self._store.set_pending_activation(move.flow_id, True)
                self._schedule(
                    max(outcome.ready_time, self.now),
                    "activate",
                    (move.flow_id, move.new_path, outcome.rules),
                )
        if self._arrival_index < len(self._arrivals) or self._store:
            self._schedule(self.now + self.config.te.epoch, "epoch")

    def _activate_path(self, payload) -> None:
        """Switch a flow onto its newly installed path, make-before-break:
        the new rules are all in place, so the old ones are deleted now.
        A flow that completed while they were being installed never uses
        them; they are deleted instead."""
        flow_id, new_path, rules = payload
        store = self._store
        if flow_id not in store:
            self.controller.remove_flow_rules(rules, self.now)
            return
        old_rules = self.flow_rules.get(flow_id, ())
        self.flow_rules[flow_id] = rules
        store.set_path(flow_id, new_path)
        store.set_pending_activation(flow_id, False)
        blackholed_since = store.blackhole_start(flow_id)
        if blackholed_since is not None:
            # The flow was stranded on a failed path until this
            # activation: the whole window is control-plane-induced
            # blackhole time.
            self.blackhole_time += self.now - blackholed_since
            store.set_blackhole_start(flow_id, None)
        self.metrics.flow_rerouted(flow_id)
        self.controller.remove_flow_rules(old_rules, self.now)
        self._recompute_rates()

    # ------------------------------------------------------------------
    # Link failures
    # ------------------------------------------------------------------
    def _first_healthy_path(self, spec: FlowSpec) -> Optional[Path]:
        for candidate in self.provider.paths(spec.source, spec.destination):
            if not any(
                link in self._failed_links
                for link in path_links(candidate)
            ):
                return candidate
        return None

    def _fail_link(self, link) -> None:
        """A link fails: affected flows blackhole until rerouted.

        The controller reacts immediately (failure notifications are
        cheap); what takes time is *installing the repair rules* — exactly
        the control-plane action latency Hermes bounds.
        """
        self._failed_links.add(link)
        repairs = []
        specs = {}
        self._store.fail_link(link)
        for flow_id in self._store.flows_on_link(link):
            self._store.set_blackhole_start(flow_id, self.now)
            spec = self._store.spec(flow_id)
            specs[flow_id] = spec
            healthy = self._first_healthy_path(spec)
            if healthy is not None and healthy != self._store.path(flow_id):
                repairs.append((flow_id, healthy))
        self.failure_repairs += len(repairs)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "sim.link-fail", time=self.now, category="sim",
                link=f"{link[0]}-{link[1]}", repairs=len(repairs),
            )
        assignments = [
            (specs[flow_id], path) for flow_id, path in repairs
        ]
        outcomes = self.controller.install_paths(assignments, self.now)
        for (flow_id, path), outcome in zip(repairs, outcomes):
            self._record_outcome(outcome)
            self._store.set_pending_activation(flow_id, True)
            self._schedule(
                max(outcome.ready_time, self.now),
                "activate",
                (flow_id, path, outcome.rules),
            )
        self._recompute_rates()
