"""The migration placement planner and its checker: the oracle for planned writes.

The Rule Manager writes every migration rule that dominates no resident
main-table entry with ``TcamTable.insert(planned=True)``, which charges the
empty-table write cost instead of the shifting cost.  That charge rests on
a claim from TCAM update optimizers in the spirit of RuleTris [62]: such a
batch can be laid into the free slots below the resident region, in
dependency order, without moving any resident entry and without exposing a
wrong first match at any intermediate state.

This module makes the claim checkable:

* :func:`dependency_edges` and :func:`topological_layers` build the rule
  dependency DAG (rule A must sit above rule B iff they overlap and A has
  strictly higher priority);
* :func:`plan_batch_placement` lays a batch into the free region in
  dependency order (a :class:`PlacementPlan`);
* :func:`verify_moveplan` replays a plan write by write and reports every
  overflow, slot collision and first-match inversion;
* :func:`naive_shift_count` counts the entries a naive priority-ordered
  TCAM would shift for the same batch (the moves a plan avoids);
* :func:`capturing_writer` records, from each real migration batch, the
  rules the writer sends down the planned path.

None of it runs in production; the tests hold every real migration batch
to it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.tcam.moveplan import conflicts_with_resident
from repro.tcam.rule import Rule

#: An intermediate state of a plan puts a lower-priority rule physically
#: above an overlapping higher-priority one: first-match lookup would
#: return the wrong rule while the batch is being written.
MOVEPLAN_INVERSION = "moveplan-inversion"

#: A plan writes two rules into the same slot, or into a slot already
#: holding a resident entry.
MOVEPLAN_SLOT_CONFLICT = "moveplan-slot-conflict"

#: A plan writes past the end of the table.
MOVEPLAN_OVERFLOW = "moveplan-overflow"


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
    below — :func:`~repro.tcam.moveplan.conflicts_with_resident` flags those
    and the writer sends them down the online (shifting) path.

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


@dataclass(frozen=True)
class PlanFinding:
    """One defect :func:`verify_moveplan` found in a plan.

    Attributes:
        kind: one of the module-level ``MOVEPLAN_*`` kinds.
        message: the rules and slots involved.
        rule_ids: ids of the implicated rules.
        witness: a key showing an inversion, when there is one.
    """

    kind: str
    message: str
    rule_ids: Tuple[int, ...] = ()
    witness: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def verify_moveplan(
    plan,
    resident: Sequence[Rule],
    capacity: Optional[int] = None,
) -> List[PlanFinding]:
    """Check that a placement plan is safe at *every* intermediate state.

    A batch written one entry at a time exposes every prefix of the plan to
    live lookups, so each intermediate table state must already preserve
    first-match semantics.  The plan is replayed write by write over the
    resident rules (slots ``0..n-1``) and reports:

    * ``moveplan-overflow`` — a slot past the table's capacity;
    * ``moveplan-slot-conflict`` — a slot colliding with a resident entry
      or with an earlier write of the same plan;
    * ``moveplan-inversion`` — an intermediate state in which a rule sits
      physically above an overlapping rule of strictly higher priority.

    Args:
        plan: a :class:`PlacementPlan` (anything with aligned
            ``order``/``slots`` sequences works).
        resident: the resident rules, in physical order.
        capacity: table capacity; unbounded when None.

    Raises:
        ValueError: when the plan's order and slots differ in length.
    """
    order: Tuple[Rule, ...] = tuple(plan.order)
    slots: Tuple[int, ...] = tuple(plan.slots)
    if len(order) != len(slots):
        raise ValueError(
            f"plan order ({len(order)} rules) and slots ({len(slots)}) disagree"
        )
    findings: List[PlanFinding] = []
    occupied: Dict[int, Rule] = dict(enumerate(resident))
    for rule, slot in zip(order, slots):
        if capacity is not None and slot >= capacity:
            findings.append(
                PlanFinding(
                    kind=MOVEPLAN_OVERFLOW,
                    message=(
                        f"rule #{rule.rule_id} is planned into slot {slot} "
                        f"but the table holds only {capacity} entries"
                    ),
                    rule_ids=(rule.rule_id,),
                )
            )
            continue
        if slot in occupied:
            findings.append(
                PlanFinding(
                    kind=MOVEPLAN_SLOT_CONFLICT,
                    message=(
                        f"rule #{rule.rule_id} is planned into slot {slot}, "
                        f"already holding rule #{occupied[slot].rule_id}"
                    ),
                    rule_ids=(rule.rule_id, occupied[slot].rule_id),
                )
            )
            continue
        # The write lands; check the intermediate state it creates.  Only
        # pairs involving the new rule can introduce fresh inversions.
        for other_slot, other in occupied.items():
            upper, lower = (rule, other) if slot < other_slot else (other, rule)
            if lower.priority > upper.priority and upper.overlaps(lower):
                overlap = upper.match.intersect(lower.match)
                findings.append(
                    PlanFinding(
                        kind=MOVEPLAN_INVERSION,
                        message=(
                            f"after writing rule #{rule.rule_id} into slot "
                            f"{slot}, rule #{upper.rule_id} (prio "
                            f"{upper.priority}) sits above overlapping rule "
                            f"#{lower.rule_id} (prio {lower.priority})"
                        ),
                        rule_ids=(upper.rule_id, lower.rule_id),
                        witness=overlap.value if overlap is not None else None,
                    )
                )
        occupied[slot] = rule
    return findings


def planned_batch(manager, optimized: Sequence[Rule]) -> List[Rule]:
    """The rules of a migration batch that the writer sends down the
    planned path, read before ``manager`` writes them.

    Rules dominating a resident entry take the online shifting path,
    refreshes of already-resident ids take the refresh protocol, and the
    writer strands the rest past the main table's free slots.
    """
    conflicted_ids = {
        rule.rule_id
        for rule in conflicts_with_resident(optimized, manager.main_index)
    }
    batch = [
        rule
        for rule in sorted(optimized, key=lambda r: -r.priority)
        if rule.rule_id not in conflicted_ids and rule.rule_id not in manager.main
    ]
    free = max(0, manager.main.capacity - manager.main.occupancy)
    return batch[:free]


@dataclass(frozen=True)
class MigrationBatch:
    """The planned part of one real migration batch, with the main table
    it was written into.

    Attributes:
        planned: the rules written with ``planned=True``.
        resident: the main table's rules before the batch, in slot order.
        capacity: the main table's capacity.
    """

    planned: Tuple[Rule, ...]
    resident: Tuple[Rule, ...]
    capacity: int

    def plan(self) -> PlacementPlan:
        """The oracle's placement of the planned rules."""
        return plan_batch_placement(self.planned, self.resident, self.capacity)

    def findings(self, plan: Optional[PlacementPlan] = None) -> List[PlanFinding]:
        """What :func:`verify_moveplan` finds in ``plan`` (default: the
        oracle's own plan)."""
        if plan is None:
            plan = self.plan()
        return verify_moveplan(plan, self.resident, capacity=self.capacity)


def capturing_writer(manager, batches: List[MigrationBatch]):
    """A stand-in for ``manager._write_to_main`` that appends each batch's
    :class:`MigrationBatch` to ``batches`` and then writes it as usual."""
    write = manager._write_to_main

    def capture(optimized, now=0.0):
        batches.append(
            MigrationBatch(
                planned=tuple(planned_batch(manager, optimized)),
                resident=tuple(manager.main.rules()),
                capacity=manager.main.capacity,
            )
        )
        return write(optimized, now)

    return capture
