"""TCAM update planning: which migration writes may skip the shift.

The migration path writes a batch with ``TcamTable.insert(planned=True)``
and charges each write the empty-table cost, citing update optimizers in
the spirit of RuleTris [62]: rules that must sit above no resident entry
can be laid into the free slots below the resident region in dependency
order, so no resident entry ever moves.  A batch rule that dominates a
resident rule (overlaps it at strictly higher priority) has no such slot
and takes the online, shifting path instead;
:func:`conflicts_with_resident` finds those rules.

The planner behind the claim (dependency DAG, topological placement, the
write-by-write checker and the naive shift count) is the test suite's
oracle: ``tests/tcam/moveplan_oracle.py`` holds every real migration batch
to it.
"""

from __future__ import annotations

from typing import List, Sequence

from .rule import Rule
from .trie import PrefixRuleIndex


def conflicts_with_resident(
    batch: Sequence[Rule], resident: PrefixRuleIndex
) -> List[Rule]:
    """Batch rules that dominate some resident rule (must shift, not append).

    A batch rule with higher priority than an overlapping resident rule
    cannot be appended below it; the writer hands these to the online path.
    ``resident`` is an overlap index over the resident table, so each batch
    rule costs one index query rather than a scan of the table.  The result
    keeps batch order.
    """
    return [candidate for candidate in batch if resident.dominates_any(candidate)]
