"""The rule-installer abstraction and the naive monolithic installer.

Everything that can sit between the OpenFlow agent and the TCAM — the naive
direct path, Hermes, Tango, ESPRES, ShadowSwitch — implements
:class:`RuleInstaller`.  The simulator and the experiments treat installers
interchangeably, which is what lets us A/B the systems the paper compares.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

from ..faults.table import FaultyTable, TcamWriteError
from ..tcam.rule import Rule
from ..tcam.table import TcamTable
from ..tcam.timing import EmpiricalTimingModel, InsertOrder
from .messages import FlowMod, FlowModCommand, FlowModResult


class RuleInstaller(abc.ABC):
    """Interface between the switch agent and a TCAM-management scheme."""

    @abc.abstractmethod
    def apply(self, flow_mod: FlowMod) -> FlowModResult:
        """Apply one FlowMod, returning the control-plane latency it cost."""

    def apply_batch(self, flow_mods: Sequence[FlowMod]) -> List[FlowModResult]:
        """Apply a batch of FlowMods.

        The default applies them in arrival order; schemes that reorder or
        rewrite batches (ESPRES, Tango) override this.
        """
        return [self.apply(flow_mod) for flow_mod in flow_mods]

    @abc.abstractmethod
    def lookup(self, key: int) -> Optional[Rule]:
        """Data-plane lookup through this installer's table organization."""

    @abc.abstractmethod
    def occupancy(self) -> int:
        """Total rules physically installed."""

    def advance_time(self, now: float) -> float:
        """Notify the installer of simulation time; returns background work
        time consumed since the previous call (0 for passive installers).

        Hermes overrides this to run its Rule Manager (prediction +
        migration) between control-plane actions.
        """
        return 0.0

    def tables(self) -> Dict[str, List[Rule]]:
        """Physical table contents, by name, in physical (lookup) order.

        The introspection seam of the ruleset verifier
        (:mod:`repro.analysis.verifier`): two-slice schemes expose
        ``"shadow"`` and ``"main"``, monolithic schemes ``"monolithic"``.
        The default (no tables exposed) opts a scheme out of verification.
        """
        return {}

    def shift_count(self) -> int:
        """Cumulative physical entry shifts performed by this installer.

        The tracing seam: the agent reads it before and after each action
        and attributes the delta to that action's span.  Pure read — no
        side effects, so calling it never perturbs a run.  Installers that
        do not track shifts return 0.
        """
        return 0

    def gauges(self) -> Dict[str, float]:
        """Named gauge readings for tracing (pure reads, may be empty).

        The agent samples these after each action under its own switch
        name, so the tracer's on-change dedup runs per switch.  Hermes
        exposes shadow/main occupancy and its token-bucket level.
        """
        return {}

    @abc.abstractmethod
    def prefill_table(self) -> TcamTable:
        """The physical table background rules live in, never fault-wrapped.

        Schemes with multi-level storage name the rules' steady-state home
        (Hermes: the main table).
        """

    def prefill(self, rules: Sequence[Rule]) -> None:
        """Pre-install background rules before measurement starts.

        Production switches are never empty — routing entries and ACLs
        occupy the table, and Table 1 shows occupancy is what makes inserts
        slow.  Prefill loads :meth:`prefill_table` in bulk
        (:meth:`TcamTable.load`): it charges no simulated time, but draws
        the same latency noise and keeps the same write and shift counts as
        one insert per rule.  It writes the raw table: faults model the
        measured run, not the preexisting table state.
        """
        self.prefill_table().load(rules)


class DirectInstaller(RuleInstaller):
    """The baseline: every FlowMod goes straight at one monolithic table.

    This models an unmodified commodity switch — the "Pica8 P-3290" /
    "Dell 8132F" / "HP 5406zl" lines in the paper's figures.
    """

    def __init__(
        self,
        timing: EmpiricalTimingModel,
        capacity: Optional[int] = None,
        rng=None,
        order: InsertOrder = InsertOrder.RANDOM,
        injector=None,
    ) -> None:
        """Create a monolithic installer.

        Args:
            timing: the switch's TCAM timing model.
            capacity: flow-table size; defaults to the model's capacity.
            rng: optional generator enabling latency noise.
            order: priority ordering assumed for latency scaling.
            injector: optional :class:`~repro.faults.injector.FaultInjector`;
                when given, writes route through a
                :class:`~repro.faults.table.FaultyTable` and may fail or
                silently no-op.
        """
        self._raw = TcamTable(timing, capacity=capacity, name="monolithic", rng=rng)
        self.table = self._raw
        self.injector = injector
        if injector is not None:
            self.table = FaultyTable(self._raw, injector)
        self.order = order

    def prefill_table(self) -> TcamTable:
        """The monolithic table, unwrapped."""
        return self._raw

    def prefill(self, rules: Sequence[Rule]) -> None:
        """Bulk-load the raw table in this installer's insert order."""
        self._raw.load(rules, order=self.order)

    def apply(self, flow_mod: FlowMod) -> FlowModResult:
        """Apply one FlowMod directly to the monolithic table.

        A visibly failed write (fault injection) still charges its latency
        but installs nothing — the naive scheme has no recovery story, which
        is exactly the gap the chaos experiment measures.
        """
        if flow_mod.command is FlowModCommand.ADD:
            try:
                result = self.table.insert(flow_mod.rule, order=self.order)
            except TcamWriteError as error:
                return FlowModResult(latency=error.latency)
            return FlowModResult(
                latency=result.latency,
                installed_rule_ids=(flow_mod.rule.rule_id,),
            )
        if flow_mod.command is FlowModCommand.DELETE:
            result = self.table.delete(flow_mod.rule_id)
            return FlowModResult(latency=result.latency)
        # MODIFY: in-place unless the priority changes, in which case the
        # paper converts it into delete + insert (Section 4.1).
        if flow_mod.changes_priority:
            old = self.table.get(flow_mod.rule_id)
            delete_latency = self.table.delete(flow_mod.rule_id).latency
            replacement = Rule(
                match=flow_mod.new_match if flow_mod.new_match is not None else old.match,
                priority=flow_mod.new_priority,
                action=(
                    flow_mod.new_action if flow_mod.new_action is not None else old.action
                ),
                rule_id=old.rule_id,
                origin_id=old.origin_id,
            )
            insert_result = self.table.insert(replacement, order=self.order)
            return FlowModResult(
                latency=delete_latency + insert_result.latency,
                installed_rule_ids=(replacement.rule_id,),
            )
        result = self.table.modify(
            flow_mod.rule_id, action=flow_mod.new_action, match=flow_mod.new_match
        )
        return FlowModResult(
            latency=result.latency, installed_rule_ids=(flow_mod.rule_id,)
        )

    def lookup(self, key: int) -> Optional[Rule]:
        """Single-table lookup."""
        return self.table.lookup(key)

    def occupancy(self) -> int:
        """Rules installed in the monolithic table."""
        return self.table.occupancy

    def tables(self) -> Dict[str, List[Rule]]:
        """The single physical table."""
        return {"monolithic": self.table.rules()}

    def shift_count(self) -> int:
        """Cumulative entry shifts of the monolithic table."""
        return self.table.stats.total_shifts
