"""The wall-clock profiler: per-layer self time at the layer entry points.

``repro.obs`` answers *where the simulated milliseconds go*; this module
answers *where the wall-clock seconds go*, in the layer names of the
repo benchmark (``BENCHMARK.json``'s ``per_layer`` entries, recorded by
``hermesbench/layertrace.py``).

For the length of one profile, :meth:`Profiler.begin` replaces every
entry point in :func:`layer_entry_points` by a thin wrapper that times
the call, and :meth:`Profiler.finish` puts every original back.
:meth:`Profiler.run` runs a simulation under the root layer ``loop``.
Calls nest, so each wall-clock second lands in exactly one *stack* of
layer names from the root down (``loop;agent;hermes;tcam.insert``), as
the self time of that stack's innermost layer.  The per-layer rollup and
the collapsed stacks for speedscope both come from that one table, and
the layer self times sum to the root's wall time by construction.

Neither the kernel nor the simulator knows about the profiler: outside a
profile the unwrapped code runs, and a profiled run is byte-identical to
an unprofiled one (pinned digests in ``tests/obs/test_perf.py``).
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .wallclock import wallclock

#: The layer a profiled simulation run nests under.
ROOT_LAYER = "loop"

# Marks an attribute its owner inherits, so restoring deletes the wrapper.
_INHERITED = object()


def layer_entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` of every entry point a profile wraps.

    The same entry points, under the same layer names, as the benchmark's
    ``hermesbench/layertrace.py``.  ``max_min_fair_rates`` and
    ``partition_new_rule`` are wrapped where the calling module binds
    them, since that binding is the one the call uses.
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

    points = [
        (EventScheduler, "schedule", "kernel"),
        (EventScheduler, "pop", "kernel"),
        (simulation_module, "max_min_fair_rates", "fairshare"),
        (FlowStore, "recompute", "fairshare"),
        (ProactiveTeApp, "plan", "te_plan"),
    ]
    points += [
        (SdnController, name, "controller")
        for name in ("install_path", "install_paths", "remove_flow_rules")
    ]
    points += [
        (channel, name, "channel")
        for channel in (NaiveChannel, ResilientChannel)
        for name in ("send", "send_batch")
    ]
    points += [
        (SwitchAgent, "submit", "agent"),
        (SwitchAgent, "submit_batch", "agent"),
        (HermesInstaller, "apply", "hermes"),
        (HermesInstaller, "advance_time", "hermes"),
        (RuleManager, "tick", "rule_manager"),
        (RuleManager, "migrate", "rule_manager"),
        (GateKeeper, "decide", "gatekeeper"),
        (hermes_module, "partition_new_rule", "partition"),
        (rule_manager_module, "partition_new_rule", "partition"),
    ]
    points += [
        (TcamTable, op, f"tcam.{op}")
        for op in ("insert", "delete", "modify", "lookup")
    ]
    return points


@dataclass
class LayerCost:
    """Calls into one layer (or one stack) and the wall time of its own
    code, excluding the wrapped calls it made."""

    calls: int = 0
    self_seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready payload."""
        return {"calls": self.calls, "self_seconds": self.self_seconds}


@dataclass
class ProfileReport:
    """A finished profile: where the wall-clock seconds went.

    Attributes:
        total_seconds: wall time of the root calls (``loop`` for a
            profiled simulation run).
        stacks: self time keyed by the stack of layer names from the
            root down; the self times sum to ``total_seconds``.
        meta: free-form context (scenario name, scheme, seed).
    """

    total_seconds: float = 0.0
    stacks: Dict[Tuple[str, ...], LayerCost] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def layers(self) -> Dict[str, LayerCost]:
        """Per-layer rollup: each stack's cost booked to its innermost layer."""
        layers: Dict[str, LayerCost] = {}
        for stack, cost in self.stacks.items():
            layer = layers.setdefault(stack[-1], LayerCost())
            layer.calls += cost.calls
            layer.self_seconds += cost.self_seconds
        return layers

    def to_dict(self) -> dict:
        """JSON-ready payload (sorted keys, plain types)."""
        return {
            "total_seconds": self.total_seconds,
            "layers": {
                name: cost.to_dict()
                for name, cost in sorted(self.layers.items())
            },
            "stacks": {
                ";".join(stack): cost.to_dict()
                for stack, cost in sorted(self.stacks.items())
            },
            "meta": dict(self.meta),
        }

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``loop;agent;hermes weight_us``) —
        loadable by speedscope / flamegraph.pl."""
        lines = []
        for stack, cost in sorted(self.stacks.items()):
            weight = int(round(cost.self_seconds * 1e6))
            if weight > 0:
                lines.append(f"{';'.join(stack)} {weight}")
        return lines

    def render(self, top: int = 12) -> str:
        """The CLI's text report for one profile."""
        layers = self.layers
        accounted = sum(cost.self_seconds for cost in layers.values())
        lines = [
            f"profiled {self.total_seconds * 1e3:.1f} ms wall-clock; layer "
            f"self times sum to {accounted * 1e3:.1f} ms"
        ]
        if self.meta:
            rendered = ", ".join(
                f"{key}={self.meta[key]}" for key in sorted(self.meta)
            )
            lines.append(f"meta: {rendered}")
        lines.append("")
        lines.append(f"{'layer':<16}{'calls':>10}{'self (ms)':>12}{'share':>9}")
        for name, cost in sorted(
            layers.items(), key=lambda item: -item[1].self_seconds
        ):
            share = (
                cost.self_seconds / self.total_seconds
                if self.total_seconds
                else 0.0
            )
            lines.append(
                f"{name:<16}{cost.calls:>10}{cost.self_seconds * 1e3:>12.3f}"
                f"{share * 100:>8.1f}%"
            )
        ranked = sorted(
            self.stacks.items(), key=lambda item: -item[1].self_seconds
        )[:top]
        if ranked:
            lines.append("")
            lines.append(f"{'calls':>10}{'self (ms)':>12}  stack")
            for stack, cost in ranked:
                lines.append(
                    f"{cost.calls:>10}{cost.self_seconds * 1e3:>12.3f}  "
                    f"{';'.join(stack)}"
                )
        return "\n".join(lines)


class _Node:
    """One stack of layer names: its innermost layer, calls, inclusive
    wall time, and the stacks one layer deeper."""

    __slots__ = ("layer", "calls", "wall", "children")

    def __init__(self, layer: Optional[str] = None) -> None:
        self.layer = layer
        self.calls = 0
        self.wall = 0.0
        self.children: Dict[str, "_Node"] = {}


class Profiler:
    """Times the layer entry points for the length of one profile.

    Life cycle: construct, :meth:`begin` (wraps the entry points),
    :meth:`run` the simulation, :meth:`finish` (restores them and
    returns the report).  The object is single-use; profile a second
    run with a fresh instance.
    """

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self._root = _Node()  # the empty stack: its children are the roots
        self._current = self._root
        self._patches: List[Tuple[object, str, object]] = []
        self._report: Optional[ProfileReport] = None

    def begin(self) -> "Profiler":
        """Wrap every layer entry point until :meth:`finish`."""
        if self._patches or self._report is not None:
            raise RuntimeError("a Profiler profiles once; use a fresh one")
        for owner, attr, layer in layer_entry_points():
            self._wrap(owner, attr, layer)
        return self

    def _wrap(self, owner, attr: str, layer: str) -> None:
        original = vars(owner).get(attr, _INHERITED)
        target = getattr(owner, attr)
        call = self.call

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            return call(layer, target, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def call(self, layer: str, function, *args, **kwargs):
        """Run ``function`` as one call into ``layer``, nested under the
        call that is open.  A call into the layer that is already
        innermost (``send`` calling ``send_batch``) runs inside the open
        call, so a layer counts once per entry from another layer."""
        parent = self._current
        if parent.layer == layer:
            return function(*args, **kwargs)
        node = parent.children.get(layer)
        if node is None:
            node = parent.children[layer] = _Node(layer)
        self._current = node
        start = wallclock()
        try:
            return function(*args, **kwargs)
        finally:
            node.wall += wallclock() - start
            node.calls += 1
            self._current = parent

    def run(self, simulation):
        """Run ``simulation`` under the root layer; returns its metrics.

        Collects first, so no gen-2 pause over set-up garbage lands in it.
        """
        gc.collect()
        return self.call(ROOT_LAYER, simulation.run)

    def finish(self) -> ProfileReport:
        """Restore every wrapped entry point and freeze the report
        (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if self._report is None:
            self._report = ProfileReport(
                total_seconds=sum(
                    node.wall for node in self._root.children.values()
                ),
                stacks=_self_times(self._root),
                meta=dict(self.meta),
            )
        return self._report


def _self_times(
    node: _Node, stack: Tuple[str, ...] = ()
) -> Dict[Tuple[str, ...], LayerCost]:
    """Each stack below ``node``, with its calls and self time."""
    stacks: Dict[Tuple[str, ...], LayerCost] = {}
    for layer, child in node.children.items():
        child_stack = stack + (layer,)
        inner = sum(grandchild.wall for grandchild in child.children.values())
        stacks[child_stack] = LayerCost(child.calls, child.wall - inner)
        stacks.update(_self_times(child, child_stack))
    return stacks

