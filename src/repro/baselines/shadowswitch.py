"""ShadowSwitch: a software shadow table [Bifulco & Matsiuk, SIGCOMM CCR'15].

The closest related system to Hermes (Section 9 of the paper): new rules are
absorbed instantly by a *software* table on the switch CPU while a background
process installs them into the TCAM.  Control-plane latency is excellent —
a software hash-table insert — but packets matching software-resident rules
are forwarded by the switch CPU at a fraction of line rate until the TCAM
catches up.  Hermes's hardware shadow slice avoids that data-plane penalty,
which is the design-space distinction the paper draws.

The model exposes both sides of the trade-off: ``apply`` returns the tiny
software insertion latency, while :meth:`software_resident_fraction` and the
per-rule ``time_in_software`` ledger quantify how much traffic would have
been CPU-forwarded.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..engine.clock import Clock
from ..switchsim.installer import RuleInstaller
from ..switchsim.messages import FlowMod, FlowModCommand, FlowModResult
from ..tcam.rule import Rule
from ..tcam.table import TcamTable
from ..tcam.timing import EmpiricalTimingModel


class ShadowSwitchInstaller(RuleInstaller):
    """Software table in front of the hardware TCAM."""

    def __init__(
        self,
        timing: EmpiricalTimingModel,
        capacity: Optional[int] = None,
        software_insert_latency: float = 5e-5,
        sync_batch: int = 64,
        sync_interval: float = 0.05,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Create the two-level installer.

        Args:
            timing: hardware TCAM timing model.
            capacity: TCAM size; defaults to the model's capacity.
            software_insert_latency: seconds to insert into the CPU table.
            sync_batch: max rules moved to TCAM per background sync.
            sync_interval: seconds between background syncs.
            rng: optional generator for latency noise.
        """
        self.tcam = TcamTable(timing, capacity=capacity, name="tcam", rng=rng)
        self.software_insert_latency = software_insert_latency
        self.sync_batch = sync_batch
        self.sync_interval = sync_interval
        self._software: Dict[int, Rule] = {}
        self._entered_software_at: Dict[int, float] = {}
        self.time_in_software: List[float] = []
        self._clock = Clock()
        self._last_sync = 0.0

    @property
    def _now(self) -> float:
        """The installer's virtual-time high-water mark (kernel clock)."""
        return self._clock.now

    # ------------------------------------------------------------------
    # RuleInstaller interface
    # ------------------------------------------------------------------
    def apply(self, flow_mod: FlowMod) -> FlowModResult:
        """Apply one FlowMod; ADDs land in the software table instantly."""
        if flow_mod.command is FlowModCommand.ADD:
            rule = flow_mod.rule
            self._software[rule.rule_id] = rule
            self._entered_software_at[rule.rule_id] = self._now
            return FlowModResult(
                latency=self.software_insert_latency,
                installed_rule_ids=(rule.rule_id,),
            )
        if flow_mod.command is FlowModCommand.DELETE:
            if flow_mod.rule_id in self._software:
                self._software.pop(flow_mod.rule_id)
                self._entered_software_at.pop(flow_mod.rule_id, None)
                return FlowModResult(latency=self.software_insert_latency)
            return FlowModResult(latency=self.tcam.delete(flow_mod.rule_id).latency)
        return self._modify(flow_mod)

    def advance_time(self, now: float) -> float:
        """Run due background syncs; returns background seconds consumed."""
        self._clock.advance_to(max(self._clock.now, now))
        background = 0.0
        while self._now - self._last_sync >= self.sync_interval and self._software:
            self._last_sync += self.sync_interval
            background += self._sync_once(self._last_sync)
        if self._now - self._last_sync >= self.sync_interval:
            self._last_sync = self._now
        return background

    def lookup(self, key: int) -> Optional[Rule]:
        """Software table first (it holds the newest rules), then TCAM.

        Mirrors ShadowSwitch's lookup: the software table must win so that
        freshly-inserted higher-priority rules take effect immediately.
        """
        software_hits = [
            rule for rule in self._software.values() if rule.match.matches(key)
        ]
        hardware_hit = self.tcam.lookup(key)
        candidates = software_hits + ([hardware_hit] if hardware_hit else [])
        if not candidates:
            return None
        return max(candidates, key=lambda rule: rule.priority)

    def tables(self) -> dict:
        """Hardware table plus the software staging level.

        ShadowSwitch resolves software/hardware conflicts by priority (not
        by table precedence), so there is no cross-table inversion hazard;
        the hardware table is exposed as ``"monolithic"`` and the software
        level informationally as ``"software"``.
        """
        return {
            "monolithic": self.tcam.rules(),
            "software": [
                self._software[rule_id] for rule_id in sorted(self._software)
            ],
        }

    def occupancy(self) -> int:
        """Rules across both levels."""
        return len(self._software) + self.tcam.occupancy

    def shift_count(self) -> int:
        """Cumulative entry shifts of the hardware table."""
        return self.tcam.stats.total_shifts

    def prefill_table(self) -> TcamTable:
        """Background rules go straight to the TCAM (their steady state)."""
        return self.tcam

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def software_occupancy(self) -> int:
        """Rules currently pending in the software table."""
        return len(self._software)

    def software_resident_fraction(self) -> float:
        """Fraction of installed rules still being CPU-forwarded."""
        total = self.occupancy()
        return len(self._software) / total if total else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync_once(self, at_time: float) -> float:
        """Move up to ``sync_batch`` rules into the TCAM."""
        moved = 0
        spent = 0.0
        # Highest priority first: they benefit most from hardware speeds.
        pending = sorted(
            self._software.values(), key=lambda rule: -rule.priority
        )
        for rule in pending:
            if moved >= self.sync_batch or self.tcam.is_full:
                break
            spent += self.tcam.insert(rule).latency
            self._software.pop(rule.rule_id)
            entered = self._entered_software_at.pop(rule.rule_id, at_time)
            self.time_in_software.append(max(0.0, at_time - entered))
            moved += 1
        return spent

    def _modify(self, flow_mod: FlowMod) -> FlowModResult:
        rule_id = flow_mod.rule_id
        if rule_id in self._software:
            original = self._software[rule_id]
            self._software[rule_id] = Rule(
                match=(
                    flow_mod.new_match
                    if flow_mod.new_match is not None
                    else original.match
                ),
                priority=(
                    flow_mod.new_priority
                    if flow_mod.new_priority is not None
                    else original.priority
                ),
                action=(
                    flow_mod.new_action
                    if flow_mod.new_action is not None
                    else original.action
                ),
                rule_id=rule_id,
                origin_id=original.origin_id,
            )
            return FlowModResult(
                latency=self.software_insert_latency, installed_rule_ids=(rule_id,)
            )
        if flow_mod.changes_priority or flow_mod.new_match is not None:
            original = self.tcam.get(rule_id)
            latency = self.tcam.delete(rule_id).latency
            replacement = Rule(
                match=(
                    flow_mod.new_match
                    if flow_mod.new_match is not None
                    else original.match
                ),
                priority=(
                    flow_mod.new_priority
                    if flow_mod.new_priority is not None
                    else original.priority
                ),
                action=(
                    flow_mod.new_action
                    if flow_mod.new_action is not None
                    else original.action
                ),
                rule_id=rule_id,
                origin_id=original.origin_id,
            )
            latency += self.tcam.insert(replacement).latency
            return FlowModResult(latency=latency, installed_rule_ids=(rule_id,))
        result = self.tcam.modify(rule_id, action=flow_mod.new_action)
        return FlowModResult(latency=result.latency, installed_rule_ids=(rule_id,))
