"""The controller→switch control channel.

The paper (and the seed reproduction) assume FlowMods always arrive.  This
module makes the channel explicit so that assumption becomes a choice:

* :class:`NaiveChannel` — the seed behaviour, verbatim: one delivery, no
  retries, no randomness.  Runs through it are byte-identical to runs that
  call :meth:`SwitchAgent.submit` directly.
* :class:`ResilientChannel` — timeout + capped exponential backoff with
  seeded jitter, xid-stamped FlowMods so agents can deduplicate
  redeliveries (exactly-once installs even when only the ack was lost),
  and a circuit breaker that declares the switch unreachable after N
  consecutive timeouts (fast-failing until a cooldown, then probing
  half-open).

All timing is virtual: retries advance the *message's* clock, not the
host's, so the resilient channel at drop-rate zero performs the same agent
calls at the same simulated times as the naive one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..engine.clock import Clock
from ..faults.injector import FaultInjector
from ..obs.tracer import get_tracer
from .agent import AgentDownError, CompletedAction, SwitchAgent
from .messages import FlowMod


@dataclass(frozen=True)
class ChannelConfig:
    """Retry/backoff/breaker tunables of the resilient channel."""

    timeout: float = 0.05
    max_retries: int = 8
    backoff_base: float = 0.005
    backoff_cap: float = 0.25
    jitter: float = 0.2
    breaker_threshold: int = 8
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative: {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters cannot be negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be at least 1: {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown cannot be negative: {self.breaker_cooldown}"
            )


@dataclass
class SendOutcome:
    """Result of sending one FlowMod batch through a channel.

    Attributes:
        completed: the agent-side outcomes, one per FlowMod; empty when the
            batch never took effect (dropped on every attempt, or breaker
            fast-fail).
        attempts: delivery attempts made (0 for a breaker fast-fail).
        done_time: when the controller learned the final status — the ack
            time on success, the give-up time otherwise.  None for a
            delivery on the naive channel, which has no acks: the
            controller observes each action's own finish time.
        delivered: True when the controller received an ack.
        sent_time: when the controller sent the batch.
    """

    completed: List[CompletedAction]
    attempts: int
    done_time: Optional[float]
    delivered: bool
    sent_time: float

    @property
    def applied(self) -> bool:
        """True when the switch actually executed the batch (it may have,
        even unacked, when only the ack was lost)."""
        return bool(self.completed)

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(0, self.attempts - 1)

    @property
    def heard_time(self) -> float:
        """When the controller learned the outcome: ``done_time``, or on
        the naive channel (no acks) the last action's finish."""
        if self.done_time is not None:
            return self.done_time
        return self.completed[-1].finish_time if self.completed else self.sent_time

    @property
    def channel_delay(self) -> float:
        """Send-to-heard less the switch's window from arrival to last
        finish: what the network added.  Zero for a send never applied."""
        if not self.completed:
            return 0.0
        window = self.completed[-1].finish_time - self.completed[0].submit_time
        return max(0.0, (self.heard_time - self.sent_time) - window)


@dataclass
class ChannelStats:
    """Cumulative channel accounting."""

    sends: int = 0
    retries: int = 0
    timeouts: int = 0
    give_ups: int = 0
    fast_fails: int = 0
    breaker_opens: int = 0


class Channel:
    """Interface: deliver FlowMod batches to one switch agent."""

    _history: List[SendOutcome]

    def send(self, flow_mod: FlowMod, at_time: float) -> SendOutcome:
        """Send one FlowMod: a batch of one (see :meth:`send_batch`)."""
        return self.send_batch((flow_mod,), at_time)

    def send_batch(
        self, flow_mods: Sequence[FlowMod], at_time: float
    ) -> SendOutcome:
        raise NotImplementedError

    def history(self) -> List[SendOutcome]:
        """Every send that took effect on the switch, in send order."""
        return list(self._history)

    def _close(self, span, outcome: SendOutcome) -> SendOutcome:
        """Keep an applied send, and finish its ``flowmod`` span."""
        if outcome.completed:
            self._history.append(outcome)
        if get_tracer().enabled:
            span.finish(
                end=outcome.heard_time, delivered=outcome.delivered,
                attempts=outcome.attempts, channel=outcome.channel_delay,
            )
        return outcome


class NaiveChannel(Channel):
    """The seed's implicit channel: fire-and-forget, no retries.

    Without an injector it is perfectly reliable and adds zero machinery —
    byte-identical to calling the agent directly.  With one, FlowMods can
    be dropped (lost forever — the naive scheme's defining weakness) or
    delayed; there is no redelivery, so duplicates cannot arise and a lost
    ack is indistinguishable from success.
    """

    def __init__(
        self,
        agent: SwitchAgent,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.agent = agent
        self.injector = injector
        # Channels keep virtual time on the run's shared kernel clock; a
        # standalone channel inherits its agent's timeline.
        self.clock = clock if clock is not None else agent.clock
        self.stats = ChannelStats()
        self._history: List[SendOutcome] = []

    def _verdict_delay(self, at_time: float) -> Optional[float]:
        """Extra delivery delay, or None when the FlowMod is dropped."""
        if self.injector is None:
            return 0.0
        verdict = self.injector.flowmod_verdict(
            now=at_time, target=self.agent.name, xid=None
        )
        # Only forward loss hurts a channel that never acks or redelivers:
        # drop-ack still applies, and a duplicate has no first copy to
        # conflict with dedup-wise (we deliver once).
        if verdict.kind == "drop":
            return None
        return verdict.delay

    def send_batch(
        self, flow_mods: Sequence[FlowMod], at_time: float
    ) -> SendOutcome:
        self.stats.sends += 1
        span = get_tracer().start_span(
            "flowmod", start=at_time, category="channel",
            switch=self.agent.name, size=len(flow_mods),
        )
        delay = self._verdict_delay(at_time)
        completed: List[CompletedAction] = []
        if delay is not None:
            try:
                completed = self.agent.submit_batch(
                    flow_mods, at_time=at_time + delay
                )
            except AgentDownError:
                delay = None
            except BaseException:
                span.finish(end=at_time, error=True)
                raise
        if delay is None:
            self.stats.give_ups += 1
            return self._close(span, SendOutcome(
                completed=[], attempts=1, done_time=at_time, delivered=False,
                sent_time=at_time,
            ))
        return self._close(span, SendOutcome(
            completed=completed, attempts=1, done_time=None, delivered=True,
            sent_time=at_time,
        ))


class ResilientChannel(Channel):
    """Reliable delivery over a lossy control channel.

    Every send stamps the FlowMod(s) with a fresh xid; the agent's xid
    cache turns redeliveries into acks instead of re-installs.  Losses are
    retried after a timeout plus capped exponential backoff (jittered from
    a dedicated seeded stream).  ``breaker_threshold`` consecutive
    timeouts open the circuit breaker: sends fast-fail (the switch is
    reported unreachable, and ``on_breaker_open`` fires — Hermes uses this
    to enter degraded mode) until ``breaker_cooldown`` elapses, after which
    the next send probes half-open.
    """

    def __init__(
        self,
        agent: SwitchAgent,
        injector: FaultInjector,
        config: Optional[ChannelConfig] = None,
        rng: Optional[np.random.Generator] = None,
        on_breaker_open: Optional[Callable[[float], None]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.agent = agent
        self.injector = injector
        self.clock = clock if clock is not None else agent.clock
        self.config = config if config is not None else ChannelConfig()
        self.rng = rng if rng is not None else injector.child_rng(f"channel:{agent.name}")
        self.on_breaker_open = on_breaker_open
        self.stats = ChannelStats()
        self._xids = itertools.count(1)
        self._consecutive_timeouts = 0
        self._open_until: Optional[float] = None
        self._history: List[SendOutcome] = []

    # ------------------------------------------------------------------
    # Breaker
    # ------------------------------------------------------------------
    @property
    def breaker_open(self) -> bool:
        """True while the breaker is tripped (as of the last send)."""
        return self._open_until is not None

    def _fast_fail(self, now: float) -> bool:
        if self._open_until is None:
            return False
        if now < self._open_until:
            self.stats.fast_fails += 1
            self.injector.log.record(
                "breaker-fast-fail", time=now, target=self.agent.name
            )
            return True
        return False  # cooldown elapsed: half-open, try the send

    def _trip_breaker(self, now: float) -> None:
        self.stats.breaker_opens += 1
        self._open_until = now + self.config.breaker_cooldown
        self._consecutive_timeouts = 0
        self.injector.log.record("breaker-open", time=now, target=self.agent.name)
        if self.on_breaker_open is not None:
            self.on_breaker_open(now)

    def _backoff(self, attempt: int) -> float:
        """Capped exponential backoff with seeded jitter, for ``attempt``
        (1-based) having just timed out."""
        base = min(self.config.backoff_cap, self.config.backoff_base * 2 ** (attempt - 1))
        if self.config.jitter == 0:
            return base
        return base * (1.0 + self.config.jitter * (2.0 * self.rng.random() - 1.0))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_batch(
        self, flow_mods: Sequence[FlowMod], at_time: float
    ) -> SendOutcome:
        self.stats.sends += 1
        if not flow_mods:
            return SendOutcome(
                completed=[], attempts=0, done_time=at_time, delivered=True,
                sent_time=at_time,
            )
        if self._fast_fail(at_time):
            return SendOutcome(
                completed=[], attempts=0, done_time=at_time, delivered=False,
                sent_time=at_time,
            )
        xid = next(self._xids)
        stamped = [replace(flow_mod, xid=xid) for flow_mod in flow_mods]
        span = get_tracer().start_span(
            "flowmod", start=at_time, category="channel",
            switch=self.agent.name, size=len(flow_mods), xid=xid,
        )
        try:
            applied, attempts, done_time, delivered = self._attempt_loop(
                at_time,
                xid,
                lambda arrival: self.agent.submit_batch(stamped, at_time=arrival),
            )
        except BaseException:
            span.finish(end=at_time, error=True)
            raise
        return self._close(span, SendOutcome(
            completed=applied if applied is not None else [],
            attempts=attempts,
            done_time=done_time,
            delivered=delivered,
            sent_time=at_time,
        ))

    def _attempt_loop(self, at_time: float, xid: int, apply: Callable):
        """Shared retry machinery; returns (applied, attempts, done, ok)."""
        now = at_time
        applied = None
        attempts = 0
        while attempts <= self.config.max_retries:
            attempts += 1
            if attempts > 1:
                self.stats.retries += 1
                self.injector.log.record(
                    "retry", time=now, target=self.agent.name, xid=xid, attempt=attempts
                )
            verdict = self.injector.flowmod_verdict(
                now=now, target=self.agent.name, xid=xid
            )
            lost = verdict.kind == "drop"
            arrival = now + verdict.delay
            if not lost:
                try:
                    applied = apply(arrival)
                except AgentDownError:
                    lost = True
                else:
                    if verdict.kind == "duplicate":
                        # The network delivered a second copy; the agent's
                        # xid cache absorbs it.
                        apply(arrival)
                    if verdict.kind != "drop-ack":
                        # Acked: success.
                        self._consecutive_timeouts = 0
                        self._open_until = None
                        done = max(
                            [arrival, *(action.finish_time for action in applied)]
                        )
                        return applied, attempts, done, True
                    lost = True  # applied, but the controller never hears
            # Timeout path.
            self.stats.timeouts += 1
            get_tracer().event(
                "channel.timeout", time=now + self.config.timeout,
                category="channel", switch=self.agent.name, xid=xid,
                attempt=attempts,
            )
            self._consecutive_timeouts += 1
            if self._consecutive_timeouts >= self.config.breaker_threshold:
                self._trip_breaker(now + self.config.timeout)
                break
            now += self.config.timeout + self._backoff(attempts)
        self.stats.give_ups += 1
        self.injector.log.record(
            "give-up", time=now, target=self.agent.name, xid=xid, attempts=attempts
        )
        return applied, attempts, now + self.config.timeout, False
