"""The switch-resident control agent.

Models the software path on the switch (Figure 2 of the paper): FlowMods
arrive from the controller, queue at the switch CPU, and are executed
serially against the TCAM through a :class:`RuleInstaller`.  Serial execution
is what turns per-rule TCAM latency into queueing delay under bursts — the
effect behind the paper's Figure 11 time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..engine.clock import Clock, SerialResource
from ..obs.tracer import get_tracer
from ..tcam.rule import Rule
from .installer import RuleInstaller
from .messages import FlowMod, FlowModResult


class AgentDownError(RuntimeError):
    """The switch agent is crashed/restarting; the submission was lost.

    Raised only when a fault injector with an :class:`~repro.faults.spec.AgentCrash`
    schedule is attached.  The queued message is gone (queue loss); the
    TCAM content is intact (table survives restarts).
    """


@dataclass(frozen=True)
class CompletedAction:
    """A FlowMod's life cycle through the agent.

    Attributes:
        flow_mod: the request.
        result: the installer's outcome (latency, fragments, path).
        submit_time: when the controller's message reached the agent.
        start_time: when the switch CPU began executing it.
        finish_time: when the TCAM update completed.
    """

    flow_mod: FlowMod
    result: FlowModResult
    submit_time: float
    start_time: float
    finish_time: float

    @property
    def response_time(self) -> float:
        """Queueing plus execution time — the paper's rule installation time."""
        return self.finish_time - self.submit_time

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for the switch CPU before execution began."""
        return self.start_time - self.submit_time


@dataclass
class AgentStats:
    """Aggregate accounting across an agent's lifetime.

    ``busy_time`` (control-path execution) plus ``background_time`` (Rule
    Manager work between actions) plus ``stall_time`` (injected CPU pauses)
    decompose the agent's total wall-time spent off-idle.
    """

    actions: int = 0
    guaranteed_actions: int = 0
    busy_time: float = 0.0
    queue_time: float = 0.0
    background_time: float = 0.0
    stall_time: float = 0.0
    stalls: int = 0
    deduplicated: int = 0
    crash_losses: int = 0

    def record(self, completed: CompletedAction, background_time: float = 0.0) -> None:
        """Fold one completed action (and any background work that ran
        ahead of it) into the counters."""
        self.actions += 1
        if completed.result.used_guaranteed_path:
            self.guaranteed_actions += 1
        self.busy_time += completed.finish_time - completed.start_time
        self.queue_time += completed.queue_delay
        self.background_time += background_time


def _rule_id(flow_mod: FlowMod) -> int:
    """The id of the rule a FlowMod adds or addresses."""
    return flow_mod.rule.rule_id if flow_mod.rule is not None else flow_mod.rule_id


class SwitchAgent:
    """Serializes control-plane actions onto a rule installer.

    The switch CPU is a kernel :class:`~repro.engine.clock.SerialResource`
    on the run's shared timeline: an action submitted at time *t* starts at
    ``max(t, busy_until)`` and finishes after the installer-reported
    latency.  Hermes's background work (Rule Manager migration) is driven by
    :meth:`RuleInstaller.advance_time` before each action and accounted
    separately — per the paper it runs in the background and does not block
    the control path.
    """

    def __init__(
        self,
        installer: RuleInstaller,
        name: str = "switch",
        injector=None,
        clock: Optional[Clock] = None,
    ) -> None:
        """Wrap ``installer`` behind a serial control queue.

        Args:
            installer: the TCAM-management scheme behind this agent.
            name: switch name (used by the fault injector to scope faults).
            injector: optional :class:`~repro.faults.injector.FaultInjector`
                supplying CPU-stall and crash decisions; None models a
                perfectly reliable agent.
            clock: the shared kernel clock this agent's virtual time is
                derived from — agents of one co-simulation share one, so
                their timings live on a single timeline; None gives the
                agent a private timeline starting at zero.
        """
        self.installer = installer
        self.name = name
        self.injector = injector
        self.clock = clock if clock is not None else Clock()
        self.stats = AgentStats()
        self._cpu = SerialResource(free_at=self.clock.now)
        self._history: List[CompletedAction] = []
        # batch xid -> prior outcome, for exactly-once redelivery.
        self._xid_cache: Dict[int, List[CompletedAction]] = {}

    @property
    def busy_until(self) -> float:
        """Time at which the control CPU becomes free."""
        return self._cpu.free_at

    def history(self) -> List[CompletedAction]:
        """Every completed action, in completion order."""
        return list(self._history)

    def _sample_gauges(self, tracer, at_time: float) -> None:
        """Record the installer's gauge readings under this switch's name."""
        readings = self.installer.gauges()
        for gauge_name in sorted(readings):
            tracer.sample(
                gauge_name, time=at_time, value=readings[gauge_name],
                switch=self.name,
            )

    def _check_faults(self, at_time: float) -> None:
        """Consult the injector: crash loss raises, stalls push busy_until."""
        if self.injector is None:
            return
        if self.injector.agent_down(self.name, at_time):
            self.stats.crash_losses += 1
            raise AgentDownError(f"{self.name}: agent down at t={at_time:.6f}")
        stall = self.injector.stall_duration(self.name, at_time)
        if stall > 0:
            self._cpu.stall(at_time, stall)
            self.stats.stall_time += stall
            self.stats.stalls += 1

    def submit(
        self, flow_mod: FlowMod, at_time: Optional[float] = None
    ) -> CompletedAction:
        """Submit one FlowMod: a batch of one (see :meth:`submit_batch`)."""
        return self.submit_batch((flow_mod,), at_time)[0]

    def submit_batch(
        self, flow_mods: Sequence[FlowMod], at_time: Optional[float] = None
    ) -> List[CompletedAction]:
        """Submit a batch arriving together at ``at_time``.

        ``at_time=None`` submits at the shared clock's current instant.
        The installer may reorder or rewrite the batch (ESPRES / Tango);
        results are timed serially in the installer's execution order.
        A redelivered batch (same xid as an already-applied one, taken
        from its first mod) is not re-executed: the cached outcome is
        returned, so controller-side retransmissions cannot double-install.
        """
        if at_time is None:
            at_time = self.clock.now
        tracer = get_tracer()
        batch_xid = flow_mods[0].xid if flow_mods else None
        if batch_xid is not None and batch_xid in self._xid_cache:
            self.stats.deduplicated += 1
            tracer.event(
                "agent.dedup", time=at_time, category="agent",
                switch=self.name, xid=batch_xid,
            )
            return self._xid_cache[batch_xid]
        self._check_faults(at_time)
        batch_span = tracer.start_span(
            "agent.batch", start=at_time, category="agent",
            switch=self.name, size=len(flow_mods), xid=batch_xid,
        )
        # advance_time first: migration-era shifts belong to the Rule
        # Manager's own span, not to this batch's delta.
        background = self.installer.advance_time(at_time)
        # Shifts feed only the batch span, so untraced runs never read them.
        shifts_before = self.installer.shift_count() if tracer.enabled else 0
        start = self._cpu.start_time(at_time)
        completed_actions: List[CompletedAction] = []
        try:
            results = self.installer.apply_batch(flow_mods)
        except BaseException:
            batch_span.finish(end=at_time, error=True)
            raise
        batch_shifts = (
            self.installer.shift_count() - shifts_before if tracer.enabled else 0
        )
        cursor = start
        for index, (flow_mod, result) in enumerate(zip(flow_mods, results)):
            finish = cursor + result.latency
            completed = CompletedAction(
                flow_mod=flow_mod,
                result=result,
                submit_time=at_time,
                start_time=cursor,
                finish_time=finish,
            )
            completed_actions.append(completed)
            # The batch's background work is charged once, with its first
            # action, so the decomposition stays additive.
            self.stats.record(
                completed, background_time=background if index == 0 else 0.0
            )
            if tracer.enabled:
                # Per-action child spans (parented on the open batch span)
                # carry the stages known here; shifts are known only
                # batch-wide, so they live on the batch span instead.
                tracer.start_span(
                    "agent.action", start=at_time, category="agent",
                    switch=self.name, command=flow_mod.command.value,
                    xid=flow_mod.xid, rule=_rule_id(flow_mod),
                ).finish(
                    end=finish,
                    queue_delay=completed.queue_delay,
                    exec_latency=result.latency,
                    gatekeeper=result.gatekeeper,
                    guaranteed=result.used_guaranteed_path,
                )
            cursor = finish
        self._cpu.occupy_until(cursor)
        self._history.extend(completed_actions)
        if batch_xid is not None:
            self._xid_cache[batch_xid] = completed_actions
        batch_span.finish(
            end=cursor, shifts=batch_shifts, background=background
        )
        if tracer.enabled:
            self._sample_gauges(tracer, cursor)
        return completed_actions

    def lookup(self, key: int) -> Optional[Rule]:
        """Data-plane lookup delegated to the installer."""
        return self.installer.lookup(key)

    def __repr__(self) -> str:
        return (
            f"SwitchAgent({self.name!r}, actions={self.stats.actions}, "
            f"busy_until={self._cpu.free_at:.6f})"
        )
