"""ESPRES: transparent SDN update scheduling [Perešíni et al., HotSDN'14].

ESPRES improves rule-installation latency *without touching the switch*: it
reorders and paces the updates the controller sends so that each switch
receives them in its cheapest order.  It is a best-effort technique — the
paper's Figure 10/11 comparison point that reduces, but cannot bound,
installation latency.

In our switch model the cheap order is descending priority: each subsequent
rule lands at the bottom of the occupied region and shifts nothing.  (Real
switches differ in which order they prefer — Tango's measurements found some
prefer ascending — but the modelling point is identical: a schedule exists
that avoids most entry shifting, and ESPRES finds it.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..switchsim.installer import DirectInstaller, RuleInstaller
from ..switchsim.messages import FlowMod, FlowModCommand, FlowModResult
from ..tcam.rule import Rule
from ..tcam.timing import EmpiricalTimingModel


class EspresInstaller(RuleInstaller):
    """Reorders each FlowMod batch into the switch's cheapest order.

    Single (non-batch) FlowMods pass straight through — with a batch of one
    there is nothing to schedule, which is exactly ESPRES's limitation.
    """

    def __init__(
        self,
        timing: EmpiricalTimingModel,
        capacity: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Wrap a monolithic table behind the ESPRES scheduler."""
        self._direct = DirectInstaller(timing, capacity=capacity, rng=rng)

    @property
    def table(self):
        """The underlying monolithic TCAM table."""
        return self._direct.table

    def tables(self):
        """The single physical table (scheduling never splits it)."""
        return self._direct.tables()

    def shift_count(self) -> int:
        """Cumulative entry shifts of the underlying table."""
        return self._direct.shift_count()

    def prefill_table(self):
        """The underlying monolithic table."""
        return self._direct.prefill_table()

    def apply(self, flow_mod: FlowMod) -> FlowModResult:
        """Apply a single FlowMod (no scheduling opportunity)."""
        return self._direct.apply(flow_mod)

    def apply_batch(self, flow_mods: Sequence[FlowMod]) -> List[FlowModResult]:
        """Apply a batch in the scheduled (cheapest) order.

        Deletions run first (they free space and never shift), then
        insertions in descending priority so each append shifts nothing.
        Results are returned aligned with the *input* order.
        """
        schedule = sorted(
            range(len(flow_mods)),
            key=lambda index: self._sort_key(flow_mods[index]),
        )
        results: List[Optional[FlowModResult]] = [None] * len(flow_mods)
        for index in schedule:
            results[index] = self._direct.apply(flow_mods[index])
        return [result for result in results if result is not None]

    @staticmethod
    def _sort_key(flow_mod: FlowMod):
        if flow_mod.command is FlowModCommand.DELETE:
            return (0, 0)
        if flow_mod.command is FlowModCommand.MODIFY:
            return (1, 0)
        return (2, -flow_mod.rule.priority)

    def lookup(self, key: int) -> Optional[Rule]:
        """Monolithic lookup."""
        return self._direct.lookup(key)

    def occupancy(self) -> int:
        """Rules installed in the monolithic table."""
        return self._direct.occupancy()
