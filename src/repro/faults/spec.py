"""Fault specifications: the composable vocabulary of things that go wrong.

Each spec is a small frozen dataclass describing one fault class with its
probabilities and magnitudes; a :class:`FaultPlan` composes them into the
full fault model of one run.  All probabilities default to zero, so the
default plan injects nothing — an injector built from it consumes no
randomness and leaves every run byte-identical to a fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class FlowModFault:
    """Control-channel loss model for FlowMod delivery.

    Attributes:
        drop: probability a delivery attempt is lost entirely (the
            controller times out and must retransmit).
        ack_loss_fraction: of the drops, the share where only the *ack* was
            lost — the switch applied the FlowMod, the controller did not
            hear back.  This is the case that makes retransmission unsafe
            without xid deduplication (exactly-once semantics).
        duplicate: probability the network delivers a second copy.
        delay_probability: probability a delivery is late (not lost).
        delay: how late, in seconds.
    """

    drop: float = 0.0
    ack_loss_fraction: float = 0.0
    duplicate: float = 0.0
    delay_probability: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("drop", self.drop)
        _check_probability("ack_loss_fraction", self.ack_loss_fraction)
        _check_probability("duplicate", self.duplicate)
        _check_probability("delay_probability", self.delay_probability)
        if self.delay < 0:
            raise ValueError(f"delay cannot be negative: {self.delay}")


@dataclass(frozen=True)
class TcamWriteFault:
    """TCAM write-path faults (insert / modify).

    Attributes:
        fail: probability a write visibly errors (the agent sees the
            failure and can react).
        silent: probability a write acks but installs nothing — the
            dangerous case: nothing downstream notices unless it verifies.
    """

    fail: float = 0.0
    silent: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("fail", self.fail)
        _check_probability("silent", self.silent)


@dataclass(frozen=True)
class AgentStall:
    """Switch-CPU stalls: the control CPU pauses before serving an action.

    Models the busy-CPU effect behind the paper's Figure 11 — background
    work (OS, counters, BGP) preempting the OpenFlow agent.

    Attributes:
        probability: chance any given submission finds the CPU stalled.
        duration: stall length in seconds.
        windows: explicit ``(start, end)`` wall-clock stall windows; a
            submission inside a window stalls until the window closes.
    """

    probability: float = 0.0
    duration: float = 0.0
    windows: tuple = ()

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        if self.duration < 0:
            raise ValueError(f"duration cannot be negative: {self.duration}")
        for window in self.windows:
            start, end = window
            if end < start:
                raise ValueError(f"stall window ends before it starts: {window}")


@dataclass(frozen=True)
class AgentCrash:
    """Switch-agent crash/restart schedule.

    During ``[t, t + restart_delay)`` for each crash time ``t`` the agent is
    down: control messages arriving in the window are lost (queue loss),
    but the TCAM content survives the restart (table intact) — the paper's
    hardware/software split.

    Attributes:
        times: crash instants, in seconds.
        restart_delay: how long each restart takes.
    """

    times: tuple = ()
    restart_delay: float = 0.1

    def __post_init__(self) -> None:
        if self.restart_delay < 0:
            raise ValueError(
                f"restart_delay cannot be negative: {self.restart_delay}"
            )

    def down_at(self, now: float) -> bool:
        """True when ``now`` falls inside any crash window."""
        return any(t <= now < t + self.restart_delay for t in self.times)


@dataclass(frozen=True)
class FaultPlan:
    """The composed fault model of one run (everything defaults to off)."""

    flowmod: FlowModFault = field(default_factory=FlowModFault)
    tcam: TcamWriteFault = field(default_factory=TcamWriteFault)
    stall: AgentStall = field(default_factory=AgentStall)
    crash: AgentCrash = field(default_factory=AgentCrash)
