"""Rule partitioning — Algorithm 1 of the paper, plus its bookkeeping.

Hermes inserts new rules into the shadow table, which packets probe *before*
the main table.  A new low-priority rule that overlaps a higher-priority rule
resident in the main table would therefore steal that rule's packets — the
correctness violation of Figure 4(b).  Algorithm 1 repairs this at insertion
time:

1. collect every main-table rule with higher priority that overlaps the new
   rule (``DetectOverlap``);
2. if one of them wholly subsumes the new rule, the new rule is dead — it
   could never match in a monolithic table — and is ignored (Figure 5(a));
3. otherwise iteratively *cut* the new rule's match so the overlap regions
   are excised (``EliminateOverlap``, Figure 5(b)/(c));
4. *merge* the fragments into the minimal equivalent rule set before
   inserting them into the shadow table.

The :class:`PartitionMap` records which fragments belong to which logical
rule and which main-table rules forced the cuts, so that deletions can
un-partition correctly (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..tcam.prefix import merge_prefixes
from ..tcam.rule import Rule
from ..tcam.ternary import TernaryMatch


@dataclass(frozen=True)
class PartitionOutcome:
    """Result of partitioning one new rule against the main table.

    Attributes:
        fragments: rules to physically insert into the shadow table.  When no
            overlap existed this is the original rule itself, unchanged.
        subsumed: True when a higher-priority main-table rule wholly covers
            the new rule — it must be ignored, not installed (Figure 5(a)).
        blockers: rule_ids of the main-table rules that forced cuts.
        cuts: number of EliminateOverlap invocations performed.
    """

    fragments: List[Rule]
    subsumed: bool = False
    blockers: frozenset = frozenset()
    cuts: int = 0

    @property
    def was_partitioned(self) -> bool:
        """True when the rule had to be fragmented (or fully subsumed)."""
        return self.subsumed or self.cuts > 0


def detect_overlaps(new_rule: Rule, main_rules: Iterable[Rule]) -> List[Rule]:
    """``DetectOverlap`` of Algorithm 1: higher-priority overlapping rules.

    Only *strictly higher* priority main rules threaten correctness: if the
    new rule's priority is greater than or equal to a main rule's, the shadow
    table answering first is exactly what a monolithic table would do.
    """
    return [
        resident
        for resident in main_rules
        if resident.priority > new_rule.priority and resident.overlaps(new_rule)
    ]


def eliminate_overlap(
    matches: Sequence[TernaryMatch], blocker: TernaryMatch
) -> List[TernaryMatch]:
    """``EliminateOverlap``: cut ``blocker``'s region out of every match."""
    survivors: List[TernaryMatch] = []
    for match in matches:
        survivors.extend(match.subtract(blocker))
    return survivors


def merge_matches(matches: Sequence[TernaryMatch]) -> List[TernaryMatch]:
    """``Merge``: minimize the fragment count (optimal for prefix sets).

    Prefix-shaped fragments are merged with the optimal sibling-coalescing
    algorithm; general ternary fragments are deduplicated and
    containment-pruned (a fragment inside another is redundant because all
    fragments share one action and priority).
    """
    if not matches:
        return []
    if all(match.is_prefix for match in matches):
        merged = merge_prefixes([match.to_prefix() for match in matches])
        return [TernaryMatch.from_prefix(prefix) for prefix in merged]
    unique = list(dict.fromkeys(matches))
    kept: List[TernaryMatch] = []
    for match in unique:
        if any(other.contains(match) for other in unique if other != match):
            continue
        kept.append(match)
    return kept


def partition_new_rule(new_rule: Rule, main_rules: Iterable[Rule]) -> PartitionOutcome:
    """Algorithm 1: partition ``new_rule`` against the main table's rules.

    Returns the fragments to install in the shadow table (with fresh ids and
    ``origin_id`` pointing at ``new_rule``), or a ``subsumed`` outcome when
    the rule is dead on arrival.
    """
    overlapping = detect_overlaps(new_rule, main_rules)
    if not overlapping:
        return PartitionOutcome(fragments=[new_rule])
    for blocker in overlapping:
        if blocker.match.contains(new_rule.match):
            # Figure 5(a): wholly subsumed by a higher-priority rule; in a
            # monolithic table this rule would never match a packet.
            return PartitionOutcome(
                fragments=[],
                subsumed=True,
                blockers=frozenset(r.rule_id for r in overlapping),
            )
    fragments: List[TernaryMatch] = [new_rule.match]
    cuts = 0
    for blocker in overlapping:
        fragments = eliminate_overlap(fragments, blocker.match)
        cuts += 1
        if not fragments:
            # Joint coverage by several blockers subsumes the rule even
            # though no single blocker did.
            return PartitionOutcome(
                fragments=[],
                subsumed=True,
                blockers=frozenset(r.rule_id for r in overlapping),
                cuts=cuts,
            )
    merged = merge_matches(fragments)
    return PartitionOutcome(
        fragments=[new_rule.with_match(match) for match in merged],
        blockers=frozenset(r.rule_id for r in overlapping),
        cuts=cuts,
    )


class PartitionMap:
    """The mapping set *M* of Algorithm 1.

    Tracks, for every partitioned logical rule: the original :class:`Rule`,
    the ids of its live fragments, and the main-table *blocker* rules whose
    presence forced the cuts.  Deleting a blocker from the main table
    consults this map to un-partition the affected rules (Figure 6).
    """

    def __init__(self) -> None:
        self._originals: Dict[int, Rule] = {}
        self._fragments: Dict[int, Set[int]] = {}
        self._blocked_by: Dict[int, Set[int]] = {}  # origin_id -> blocker ids
        self._blocks: Dict[int, Set[int]] = {}  # blocker id -> origin ids

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, original: Rule, outcome: PartitionOutcome) -> None:
        """Record a partitioned (or subsumed) insertion."""
        if not outcome.was_partitioned:
            return
        origin_id = original.rule_id
        self._originals[origin_id] = original
        self._fragments[origin_id] = {
            fragment.rule_id for fragment in outcome.fragments
        }
        self._blocked_by[origin_id] = set(outcome.blockers)
        for blocker_id in outcome.blockers:
            self._blocks.setdefault(blocker_id, set()).add(origin_id)

    def forget(self, origin_id: int) -> None:
        """Drop all state for a logical rule (it was deleted)."""
        self._originals.pop(origin_id, None)
        self._fragments.pop(origin_id, None)
        for blocker_id in self._blocked_by.pop(origin_id, set()):
            blocked = self._blocks.get(blocker_id)
            if blocked is not None:
                blocked.discard(origin_id)
                if not blocked:
                    del self._blocks[blocker_id]

    def origins_blocked_by(self, blocker_id: int) -> List[int]:
        """Ids of the logical rules this main-table rule forced cuts on."""
        return sorted(self._blocks.get(blocker_id, set()))

    def forget_blocker(self, blocker_id: int) -> List[Rule]:
        """A main-table rule was deleted: return the originals to restore.

        Clears the affected originals from the map (the caller re-inserts
        them from scratch, re-partitioning against the post-delete main
        table).
        """
        origin_ids = sorted(self._blocks.pop(blocker_id, set()))
        restored: List[Rule] = []
        for origin_id in origin_ids:
            original = self._originals.get(origin_id)
            if original is not None:
                restored.append(original)
            self.forget(origin_id)
        return restored

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_partitioned(self, origin_id: int) -> bool:
        """True when the logical rule currently lives as fragments."""
        return origin_id in self._originals

    def original(self, origin_id: int) -> Optional[Rule]:
        """The logical rule recorded for this id, if partitioned."""
        return self._originals.get(origin_id)

    def fragment_ids(self, origin_id: int) -> Set[int]:
        """Ids of the physical fragments of a logical rule."""
        return set(self._fragments.get(origin_id, set()))

    def replace_fragments(self, origin_id: int, fragment_ids: Iterable[int]) -> None:
        """Update a logical rule's live fragment set (after migration)."""
        if origin_id in self._originals:
            self._fragments[origin_id] = set(fragment_ids)

    def update_original(self, origin_id: int, updated: Rule) -> None:
        """Replace the stored logical rule (e.g. after an action rewrite).

        Fragment and blocker bookkeeping is preserved; only the original
        rule object changes.

        Raises:
            KeyError: when the id is not a tracked partitioned rule.
        """
        if origin_id not in self._originals:
            raise KeyError(f"rule #{origin_id} is not partitioned")
        self._originals[origin_id] = updated

    def expected_partitions(self) -> float:
        """Mean fragments per partitioned rule — the r_p of Equation 2."""
        if not self._fragments:
            return 1.0
        total = sum(len(ids) for ids in self._fragments.values())
        return max(1.0, total / len(self._fragments))

    def __len__(self) -> int:
        return len(self._originals)
