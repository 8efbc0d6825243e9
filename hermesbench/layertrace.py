"""Wall-clock layer spans recorded from outside the program.

The traced benchmark round replaces each layer's public entry points with a
thin wrapper that opens a span on entry and closes it on exit, even when the
call raises.  A span's *self time* is its wall time minus the wall time of
the wrapped calls it made, so the self times of all spans under one root sum
to the root's total.  Nothing inside ``src/`` is edited: the wrappers are
installed with ``setattr`` on the owning class or module and removed by
:meth:`LayerTracer.restore`.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

CountHook = Callable[["LayerTracer", tuple, dict, object], None]

# Marks an attribute the owner inherits, so restoring deletes the wrapper.
_INHERITED = object()


class LayerTracer:
    """Per-layer call counts and self times, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[List[float]] = []  # [child wall time] per open span
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._patches: List[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, key: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside one span named ``key``."""
        clock = self._clock
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - frame[0]

    def wrap(
        self, owner, attr: str, key: str, hook: Optional[CountHook] = None
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``hook(tracer, args, kwargs, result)`` runs after a call that
        returned, to count work from its arguments or result.
        """
        original = vars(owner).get(attr, _INHERITED)
        target = getattr(owner, attr)
        call = self.call

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            result = call(key, target, *args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def take(self) -> dict:
        """Return the recorded calls, self times and counters, and reset them."""
        if self._stack:
            raise RuntimeError("cannot take layer stats while a span is open")
        snapshot = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        return snapshot


def _count_pop(tracer, _args, _kwargs, _result) -> None:
    tracer.count("kernel.events")


def _count_moves(tracer, _args, _kwargs, result) -> None:
    tracer.count("te_plan.moves", len(result))


def _count_fragments(tracer, _args, _kwargs, result) -> None:
    tracer.count("partition.fragments", len(result.fragments))


def _count_flows(tracer, args, _kwargs, _result) -> None:
    # max_min_fair_rates(paths, ...) and FlowStore.recompute(self): the
    # first argument holds one entry per active flow.
    tracer.count("fairshare.flows", len(args[0]))


def install_layer_wraps(tracer: LayerTracer) -> None:
    """Wrap the public entry point of every layer the benchmark attributes.

    ``max_min_fair_rates`` and ``partition_new_rule`` are wrapped where the
    calling module binds them, since that binding is the one the call uses.
    """
    import repro.core.hermes as hermes_module
    import repro.core.rule_manager as rule_manager_module
    import repro.simulator.simulation as simulation_module
    from repro.core.gatekeeper import GateKeeper
    from repro.core.hermes import HermesInstaller
    from repro.core.rule_manager import RuleManager
    from repro.engine.scheduler import EventScheduler
    from repro.simulator.controller import SdnController
    from repro.simulator.flowstate import FlowStore
    from repro.simulator.sdnapp import ProactiveTeApp
    from repro.switchsim.agent import SwitchAgent
    from repro.switchsim.channel import NaiveChannel, ResilientChannel
    from repro.tcam.table import TcamTable

    wrap = tracer.wrap
    wrap(EventScheduler, "schedule", "kernel")
    wrap(EventScheduler, "pop", "kernel", _count_pop)
    wrap(simulation_module, "max_min_fair_rates", "fairshare", _count_flows)
    wrap(FlowStore, "recompute", "fairshare", _count_flows)
    wrap(ProactiveTeApp, "plan", "te_plan", _count_moves)
    for name in ("install_path", "install_paths", "remove_flow_rules"):
        wrap(SdnController, name, "controller")
    for channel in (NaiveChannel, ResilientChannel):
        wrap(channel, "send", "channel")
        wrap(channel, "send_batch", "channel")
    wrap(SwitchAgent, "submit", "agent")
    wrap(SwitchAgent, "submit_batch", "agent")
    wrap(HermesInstaller, "apply", "hermes")
    wrap(HermesInstaller, "advance_time", "hermes")
    wrap(RuleManager, "tick", "rule_manager")
    wrap(RuleManager, "migrate", "rule_manager")
    wrap(GateKeeper, "decide", "gatekeeper")
    wrap(hermes_module, "partition_new_rule", "partition", _count_fragments)
    wrap(rule_manager_module, "partition_new_rule", "partition", _count_fragments)
    for op in ("insert", "delete", "modify", "lookup"):
        wrap(TcamTable, op, f"tcam.{op}")
