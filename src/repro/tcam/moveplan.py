"""TCAM update planning: minimal-movement insertion orders.

The migration path charges pre-planned batch writes at the empty-table
cost, citing update optimizers in the spirit of RuleTris [62].  This module
implements the planning itself, so the claim is backed by code:

* a rule-dependency analysis (rule A must sit physically above rule B iff
  they overlap and A has strictly higher priority — independent rules can
  be placed in any relative order);
* a placement planner that lays a batch of rules into free TCAM slots in
  dependency (topological) order, so no resident entry ever needs to move;
* a per-insertion move-count model for *online* inserts (how many entries a
  naive priority-ordered TCAM would shift, versus the dependency-aware
  bound).

The planner's output is what justifies ``TcamTable.insert(planned=True)``:
when placements are computed offline, each write lands in a known free slot
and costs the base write latency instead of the shifting cost.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .rule import Rule
from .trie import PrefixRuleIndex


def dependency_edges(rules: Sequence[Rule]) -> List[Tuple[int, int]]:
    """Edges (above, below) of the rule dependency DAG.

    ``(a, b)`` means rule ``a`` must be matched before rule ``b``: they
    overlap and ``a`` has strictly higher priority.  Non-overlapping rules
    are unordered — the freedom every TCAM update optimizer exploits.
    """
    edges: List[Tuple[int, int]] = []
    for i, upper in enumerate(rules):
        for j, lower in enumerate(rules):
            if i == j:
                continue
            if upper.priority > lower.priority and upper.overlaps(lower):
                edges.append((upper.rule_id, lower.rule_id))
    return edges


def topological_layers(rules: Sequence[Rule]) -> List[List[Rule]]:
    """Group rules into dependency layers (Kahn's algorithm).

    Layer k contains rules all of whose dominators sit in layers < k.
    Rules within one layer are mutually independent and may occupy any
    relative TCAM positions.

    Raises:
        ValueError: never for priority-based dependencies (they are
            acyclic by construction), but defensively if a cycle appears.
    """
    by_id = {rule.rule_id: rule for rule in rules}
    indegree: Dict[int, int] = {rule.rule_id: 0 for rule in rules}
    successors: Dict[int, List[int]] = {rule.rule_id: [] for rule in rules}
    for above, below in dependency_edges(rules):
        indegree[below] += 1
        successors[above].append(below)
    frontier = sorted(
        (rule_id for rule_id, degree in indegree.items() if degree == 0),
    )
    layers: List[List[Rule]] = []
    seen = 0
    while frontier:
        layers.append([by_id[rule_id] for rule_id in frontier])
        seen += len(frontier)
        next_frontier: Set[int] = set()
        for rule_id in frontier:
            for successor in successors[rule_id]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    next_frontier.add(successor)
        frontier = sorted(next_frontier)
    if seen != len(rules):
        raise ValueError("dependency graph has a cycle (corrupt priorities?)")
    return layers


@dataclass(frozen=True)
class PlacementPlan:
    """A zero-shift write plan for a batch of rules.

    Attributes:
        order: the rules in write order (dependency-layered).
        slots: physical slot index assigned to each rule, aligned with
            ``order``.
        moves_avoided: entries a naive one-at-a-time priority insert into
            the same table would have shifted.
    """

    order: Tuple[Rule, ...]
    slots: Tuple[int, ...]
    moves_avoided: int


def plan_batch_placement(
    batch: Sequence[Rule],
    resident: Sequence[Rule],
    capacity: int,
) -> PlacementPlan:
    """Plan slot assignments for ``batch`` below the resident region.

    The resident rules occupy slots ``[0, len(resident))`` in their current
    order.  The plan writes the batch into the free region in dependency
    order; because lookups take the first match and cross-layer order is
    already priority-consistent, no resident entry moves.

    Only *batch-internal* dependencies constrain the plan.  A batch rule
    that must sit above a resident rule cannot be placed in the free region
    below — those rules are flagged by :func:`conflicts_with_resident` and
    must take the online (shifting) path instead.

    Raises:
        ValueError: when the batch does not fit in the free region.
    """
    free_slots = capacity - len(resident)
    if len(batch) > free_slots:
        raise ValueError(
            f"batch of {len(batch)} rules exceeds the {free_slots} free slots"
        )
    order: List[Rule] = [
        rule for layer in topological_layers(batch) for rule in layer
    ]
    base = len(resident)
    slots = tuple(range(base, base + len(order)))
    moves = naive_shift_count(batch, resident)
    return PlacementPlan(order=tuple(order), slots=slots, moves_avoided=moves)


def conflicts_with_resident(
    batch: Sequence[Rule], resident: PrefixRuleIndex
) -> List[Rule]:
    """Batch rules that dominate some resident rule (must shift, not append).

    A batch rule with higher priority than an overlapping resident rule
    cannot be appended below it; planners hand these to the online path.
    ``resident`` is an overlap index over the resident table, so each batch
    rule costs one index query rather than a scan of the table.  The result
    keeps batch order.
    """
    return [candidate for candidate in batch if resident.dominates_any(candidate)]


def naive_shift_count(batch: Sequence[Rule], resident: Sequence[Rule]) -> int:
    """Entries a naive priority-ordered TCAM shifts inserting ``batch``.

    Models the strictest (and most common) firmware layout: entries sorted
    by priority descending, each insert placed at the bottom of its
    priority class, shifting everything below.
    """
    ascending = sorted(rule.priority for rule in resident)
    total_shifts = 0
    for rule in sorted(batch, key=lambda r: -r.priority):
        # Entries with strictly lower priority sit below the insertion
        # point and must shift down one slot each.
        below = bisect.bisect_left(ascending, rule.priority)
        total_shifts += below
        ascending.insert(below, rule.priority)
    return total_shifts
