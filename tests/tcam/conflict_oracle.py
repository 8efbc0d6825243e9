"""The pairwise conflict scan: the test oracle for the index-backed check.

:func:`repro.tcam.moveplan.conflicts_with_resident` answers "which batch
rules dominate a resident rule" with one :class:`~repro.tcam.trie.
PrefixRuleIndex` query per batch rule.  This module keeps the original
batch x resident scan, which decides the same question directly from the
overlap definition.  It is O(batch x resident), so it lives in the test
suite, where the differential tests hold the shipped check to it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.tcam.rule import Rule


def pairwise_conflicts(batch: Sequence[Rule], resident: Sequence[Rule]) -> List[Rule]:
    """Batch rules with higher priority than some overlapping resident rule,
    in batch order."""
    conflicted: List[Rule] = []
    for candidate in batch:
        for installed in resident:
            if candidate.priority > installed.priority and candidate.overlaps(
                installed
            ):
                conflicted.append(candidate)
                break
    return conflicted
