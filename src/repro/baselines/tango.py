"""Tango: switch-property inference + rule optimization [Lazaris et al., CoNEXT'14].

Tango goes one step beyond ESPRES: besides reordering each batch into the
switch's cheapest insertion order, it *rewrites* the rules — exploiting the
structure of IP allocation (sibling subnets pointing at the same next hop)
to aggregate several rules into one before they ever reach the TCAM.  Fewer
physical entries mean fewer shifts now and a smaller table (hence cheaper
inserts) later, which is why Tango beats ESPRES at the tail in the paper's
Figure 10/11 while both remain best-effort.

Aggregation bookkeeping: every logical rule id maps to the physical entry
carrying it.  Deleting one member of an aggregate splits the aggregate —
the physical entry is removed and the surviving members are re-installed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..switchsim.installer import DirectInstaller, RuleInstaller
from ..switchsim.messages import FlowMod, FlowModCommand, FlowModResult
from ..tcam.rule import Rule
from ..tcam.ternary import TernaryMatch
from ..tcam.timing import EmpiricalTimingModel


class TangoInstaller(RuleInstaller):
    """Batch reordering plus sibling-prefix aggregation."""

    def __init__(
        self,
        timing: EmpiricalTimingModel,
        capacity: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Wrap a monolithic table behind the Tango optimizer."""
        self._direct = DirectInstaller(timing, capacity=capacity, rng=rng)
        # logical rule id -> physical rule id carrying it (identity for
        # unaggregated rules).
        self._physical_of: Dict[int, int] = {}
        # physical rule id -> logical member rules it carries.
        self._members_of: Dict[int, List[Rule]] = {}

    @property
    def table(self):
        """The underlying monolithic TCAM table."""
        return self._direct.table

    def tables(self):
        """The single physical table (aggregates included as installed)."""
        return self._direct.tables()

    def shift_count(self) -> int:
        """Cumulative entry shifts of the underlying table."""
        return self._direct.shift_count()

    def prefill_table(self):
        """The underlying monolithic table."""
        return self._direct.prefill_table()

    def prefill(self, rules: Sequence[Rule]) -> None:
        """Bulk-load the table; each background rule stands for itself."""
        self._direct.prefill(rules)
        for rule in rules:
            self._members_of[rule.rule_id] = [rule]
            self._physical_of[rule.rule_id] = rule.rule_id

    # ------------------------------------------------------------------
    # RuleInstaller interface
    # ------------------------------------------------------------------
    def apply(self, flow_mod: FlowMod) -> FlowModResult:
        """Apply a single FlowMod (aggregation needs a batch; none here)."""
        if flow_mod.command is FlowModCommand.ADD:
            return self._install_physical(flow_mod.rule, members=[flow_mod.rule])
        if flow_mod.command is FlowModCommand.DELETE:
            return self._delete_logical(flow_mod.rule_id)
        return self._modify_logical(flow_mod)

    def apply_batch(self, flow_mods: Sequence[FlowMod]) -> List[FlowModResult]:
        """Aggregate, reorder, and apply a batch.

        ADDs in the batch are grouped by (priority, action); sibling
        prefixes within a group coalesce into their parent, recursively.
        The batch is then applied deletions-first, insertions in descending
        priority.  Results align with the input order; members folded into
        an aggregate report zero incremental latency (they complete with
        the aggregate's single TCAM write).
        """
        results: List[Optional[FlowModResult]] = [None] * len(flow_mods)
        adds: List[int] = []
        others: List[int] = []
        for index, flow_mod in enumerate(flow_mods):
            (adds if flow_mod.command is FlowModCommand.ADD else others).append(index)
        for index in others:
            results[index] = self.apply(flow_mods[index])

        aggregates = self._aggregate([flow_mods[index].rule for index in adds])
        # Descending priority: each physical insert appends without shifting.
        ordered = sorted(aggregates, key=lambda pair: -pair[0].priority)
        latency_of: Dict[int, float] = {}
        for physical, members in ordered:
            result = self._install_physical(physical, members)
            for position, member in enumerate(members):
                latency_of[member.rule_id] = result.latency if position == 0 else 0.0
        for index in adds:
            rule = flow_mods[index].rule
            results[index] = FlowModResult(
                latency=latency_of.get(rule.rule_id, 0.0),
                installed_rule_ids=(self._physical_of.get(rule.rule_id, rule.rule_id),),
            )
        return [result for result in results if result is not None]

    def lookup(self, key: int) -> Optional[Rule]:
        """Monolithic lookup (aggregates match on behalf of their members)."""
        return self._direct.lookup(key)

    def occupancy(self) -> int:
        """Physical entries installed (after aggregation)."""
        return self._direct.occupancy()

    def logical_rule_count(self) -> int:
        """Logical rules currently represented."""
        return len(self._physical_of)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @staticmethod
    def _aggregate(rules: List[Rule]) -> List[tuple]:
        """Coalesce sibling prefixes with equal (priority, action).

        Returns a list of ``(physical_rule, members)`` pairs; unaggregatable
        rules map to themselves.
        """
        groups: Dict[tuple, Dict] = {}
        passthrough: List[tuple] = []
        for rule in rules:
            prefix = rule.match.to_prefix()
            if prefix is None:
                passthrough.append((rule, [rule]))
                continue
            groups.setdefault((rule.priority, rule.action), {})[prefix] = [rule]
        aggregated: List[tuple] = list(passthrough)
        for (priority, action), by_prefix in groups.items():
            changed = True
            while changed:
                changed = False
                for prefix in sorted(by_prefix, key=lambda p: -p.length):
                    if prefix not in by_prefix or prefix.length == 0:
                        continue
                    sibling = prefix.sibling()
                    if sibling in by_prefix:
                        members = by_prefix.pop(prefix) + by_prefix.pop(sibling)
                        by_prefix[prefix.parent()] = members
                        changed = True
            for prefix, members in by_prefix.items():
                physical = Rule(
                    match=TernaryMatch.from_prefix(prefix),
                    priority=priority,
                    action=action,
                )
                if len(members) == 1:
                    physical = members[0]
                aggregated.append((physical, members))
        return aggregated

    # ------------------------------------------------------------------
    # Physical bookkeeping
    # ------------------------------------------------------------------
    def _install_physical(self, physical: Rule, members: List[Rule]) -> FlowModResult:
        result = self._direct.apply(FlowMod.add(physical))
        self._members_of[physical.rule_id] = list(members)
        for member in members:
            self._physical_of[member.rule_id] = physical.rule_id
        return result

    def _delete_logical(self, logical_id: int) -> FlowModResult:
        physical_id = self._physical_of.pop(logical_id, None)
        if physical_id is None:
            raise KeyError(f"Tango: no rule #{logical_id} installed")
        members = self._members_of.pop(physical_id)
        survivors = [member for member in members if member.rule_id != logical_id]
        latency = self._direct.apply(FlowMod.delete(physical_id)).latency
        # Splitting an aggregate: surviving members are re-installed as
        # stand-alone entries (re-aggregating just the survivors).
        for survivor_physical, survivor_members in self._aggregate(survivors):
            latency += self._install_physical(
                survivor_physical, survivor_members
            ).latency
        return FlowModResult(latency=latency)

    def _modify_logical(self, flow_mod: FlowMod) -> FlowModResult:
        physical_id = self._physical_of.get(flow_mod.rule_id)
        if physical_id is None:
            raise KeyError(f"Tango: no rule #{flow_mod.rule_id} installed")
        members = self._members_of[physical_id]
        if len(members) == 1 and not flow_mod.changes_priority and flow_mod.new_match is None:
            # Unaggregated, in-place: delegate directly.
            result = self._direct.apply(
                FlowMod.modify(physical_id, action=flow_mod.new_action)
            )
            self._members_of[physical_id] = [
                Rule(
                    match=member.match,
                    priority=member.priority,
                    action=flow_mod.new_action,
                    rule_id=member.rule_id,
                    origin_id=member.origin_id,
                )
                for member in members
            ]
            return result
        # Aggregated or repositioning: split into delete + re-add.
        original = next(m for m in members if m.rule_id == flow_mod.rule_id)
        replacement = Rule(
            match=flow_mod.new_match if flow_mod.new_match is not None else original.match,
            priority=(
                flow_mod.new_priority
                if flow_mod.new_priority is not None
                else original.priority
            ),
            action=(
                flow_mod.new_action if flow_mod.new_action is not None else original.action
            ),
            rule_id=original.rule_id,
            origin_id=original.origin_id,
        )
        delete_result = self._delete_logical(flow_mod.rule_id)
        add_result = self._install_physical(replacement, [replacement])
        return FlowModResult(
            latency=delete_result.latency + add_result.latency,
            installed_rule_ids=(replacement.rule_id,),
        )
