"""Physical TCAM table model.

A TCAM stores rules as an ordered list; lookups return the first (topmost)
matching entry, so priority order must be preserved physically.  An insertion
in the middle of the list therefore *shifts* every entry below the insertion
point, which is exactly why insertion latency grows with occupancy (Section
2.1 of the paper).  This module models that behaviour: it tracks entry order,
computes the shift count of every insertion, and charges latencies from an
:class:`~repro.tcam.timing.EmpiricalTimingModel`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .rule import Action, Rule
from .ternary import TernaryMatch
from .timing import EmpiricalTimingModel, InsertOrder


# Sort keys pack ``(-priority, insertion sequence)`` into one int, which
# orders the same as the tuple while the sequence stays below the span and
# costs one int object per entry instead of a tuple and two ints.
_SEQ_SPAN = 1 << 48


class TcamError(Exception):
    """Base class for TCAM table errors."""


class TableFullError(TcamError):
    """Raised when inserting into a TCAM that has no free entries."""


class RuleNotFoundError(TcamError, KeyError):
    """Raised when an operation names a rule_id absent from the table."""


@dataclass(frozen=True)
class ControlActionResult:
    """Outcome of one control-plane action against the TCAM.

    Attributes:
        latency: seconds the ASIC spent on the action.
        shifts: number of resident entries physically moved.
        position: index the affected entry holds after the action (or held,
            for deletions).
    """

    latency: float
    shifts: int = 0
    position: int = -1


@dataclass
class TableStats:
    """Cumulative per-table accounting used by the overhead experiments."""

    insertions: int = 0
    deletions: int = 0
    modifications: int = 0
    lookups: int = 0
    total_shifts: int = 0
    busy_time: float = 0.0

    def record(self, kind: str, result: ControlActionResult) -> None:
        """Fold one action result into the counters."""
        if kind == "insert":
            self.insertions += 1
        elif kind == "delete":
            self.deletions += 1
        elif kind == "modify":
            self.modifications += 1
        self.total_shifts += result.shifts
        self.busy_time += result.latency


class TcamTable:
    """A priority-ordered TCAM table with occupancy-driven action latencies.

    Entries are kept in descending priority order (ties broken by insertion
    order), mirroring the physical layout a TCAM must maintain.  A parallel
    ascending list of sort keys — ``(-priority, insertion sequence)`` packed
    into one int — spells out exactly that order, so every action finds its
    slot by bisection instead of walking the entries.  All control actions
    return a :class:`ControlActionResult` carrying the modelled latency; the
    table itself holds no clock — callers (the switch agent or the
    simulator) accumulate time.
    """

    def __init__(
        self,
        timing: EmpiricalTimingModel,
        capacity: Optional[int] = None,
        name: str = "tcam",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Create an empty table.

        Args:
            timing: the latency model charging each action.
            capacity: entry limit; defaults to the timing model's capacity.
            name: label used in error messages and stats dumps.
            rng: optional generator enabling latency noise; deterministic
                mean latencies are used when omitted.
        """
        self.timing = timing
        self.capacity = capacity if capacity is not None else timing.capacity
        if self.capacity <= 0:
            raise ValueError(f"table {name!r} needs positive capacity")
        self.name = name
        self.rng = rng
        self.stats = TableStats()
        self._entries: List[Rule] = []
        self._by_id: Dict[int, Rule] = {}
        # ``_keys[i]`` is the sort key of ``_entries[i]``; ``_key_of`` maps a
        # rule id to its key.  A fresh insert takes the next sequence number,
        # so it sorts below every resident of its priority class.
        self._keys: List[int] = []
        self._key_of: Dict[int, int] = {}
        self._next_seq = 0
        self._listeners: List[object] = []

    def add_listener(self, listener: object) -> None:
        """Register a change observer.

        A listener may implement any of ``rule_installed(rule)``,
        ``rule_removed(rule)``, and ``rule_modified(old, new)``; missing
        methods are skipped.  Used by Hermes to keep its overlap index in
        lock-step with the physical main table.
        """
        self._listeners.append(listener)

    def _notify(self, event: str, *args) -> None:
        for listener in self._listeners:
            handler = getattr(listener, event, None)
            if handler is not None:
                handler(*args)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of rules currently installed."""
        return len(self._entries)

    @property
    def free_entries(self) -> int:
        """Number of additional rules the table can hold."""
        return self.capacity - len(self._entries)

    @property
    def is_full(self) -> bool:
        """True when no further insertion can be accepted."""
        return len(self._entries) >= self.capacity

    def rules(self) -> List[Rule]:
        """The installed rules in physical (descending-priority) order."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self._by_id

    def get(self, rule_id: int) -> Rule:
        """Return the installed rule with the given id.

        Raises:
            RuleNotFoundError: when no such rule is installed.
        """
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise RuleNotFoundError(f"{self.name}: no rule #{rule_id}") from None

    # ------------------------------------------------------------------
    # Control-plane actions
    # ------------------------------------------------------------------
    def insert(
        self,
        rule: Rule,
        order: InsertOrder = InsertOrder.RANDOM,
        planned: bool = False,
    ) -> ControlActionResult:
        """Install a rule, charging the occupancy-dependent insertion cost.

        The rule lands at the bottom of its priority class; every entry below
        that position is shifted down one slot.

        Args:
            rule: the rule to install.
            order: priority ordering of the surrounding batch.
            planned: True for writes whose placement was pre-computed
                offline (batch migration with TCAM update optimizers such
                as RuleTris [62]): the write goes into a known free slot, so
                it is charged the empty-table write cost instead of the
                occupancy-dependent shifting cost.

        Raises:
            TableFullError: when the table is at capacity.
            ValueError: when a rule with the same id is already installed.
        """
        if self.is_full:
            raise TableFullError(
                f"{self.name}: capacity {self.capacity} reached inserting {rule}"
            )
        if rule.rule_id in self._by_id:
            raise ValueError(f"{self.name}: rule #{rule.rule_id} already installed")
        key = -rule.priority * _SEQ_SPAN + self._next_seq
        position = bisect.bisect_left(self._keys, key)
        shifts = len(self._entries) - position
        effective_occupancy = 0 if planned else len(self._entries)
        latency = self.timing.insertion_latency(
            effective_occupancy,
            shifts=None if planned else shifts,
            order=order,
            rng=self.rng,
        )
        self._entries.insert(position, rule)
        self._keys.insert(position, key)
        self._key_of[rule.rule_id] = key
        self._next_seq += 1
        self._by_id[rule.rule_id] = rule
        result = ControlActionResult(latency=latency, shifts=shifts, position=position)
        self.stats.record("insert", result)
        self._notify("rule_installed", rule)
        return result

    def load(self, rules: Sequence[Rule], order: InsertOrder = InsertOrder.RANDOM) -> None:
        """Install ``rules`` in turn, exactly as one :meth:`insert` each would.

        Entries, sort keys, :class:`TableStats` (busy time summed in the
        same order), the latency-noise draws and the ``rule_installed``
        notifications, in order, all match the per-rule inserts; the
        listeners hear of the rules once all of them are written.  The
        latencies come from one array call instead of one call per rule.

        Raises:
            TableFullError: when the rules do not all fit.
            ValueError: when a rule id is already installed or repeats in
                ``rules``.  Either error leaves the table untouched.
        """
        if len(rules) > self.free_entries:
            raise TableFullError(
                f"{self.name}: capacity {self.capacity} cannot take {len(rules)} "
                f"more rules at occupancy {self.occupancy}"
            )
        batch = set()
        for rule in rules:
            if rule.rule_id in self._by_id or rule.rule_id in batch:
                raise ValueError(f"{self.name}: rule #{rule.rule_id} already installed")
            batch.add(rule.rule_id)
        occupancies = np.arange(len(self._entries), len(self._entries) + len(rules))
        shifts = []
        for rule in rules:
            key = -rule.priority * _SEQ_SPAN + self._next_seq
            position = bisect.bisect_left(self._keys, key)
            shifts.append(len(self._entries) - position)
            self._entries.insert(position, rule)
            self._keys.insert(position, key)
            self._key_of[rule.rule_id] = key
            self._next_seq += 1
            self._by_id[rule.rule_id] = rule
        latencies = self.timing.insertion_latencies(
            occupancies, np.array(shifts), order=order, rng=self.rng
        )
        self.stats.insertions += len(rules)
        self.stats.total_shifts += sum(shifts)
        for latency in latencies.tolist():
            self.stats.busy_time += latency
        for rule in rules:
            self._notify("rule_installed", rule)

    @property
    def lowest_priority(self) -> Optional[int]:
        """Priority of the bottom entry (None when empty); O(1)."""
        return self._entries[-1].priority if self._entries else None

    def delete(self, rule_id: int) -> ControlActionResult:
        """Remove a rule by id; deletion is fast and shift-free.

        Raises:
            RuleNotFoundError: when no such rule is installed.
        """
        rule = self.get(rule_id)
        position = self._position_of(rule_id)
        del self._entries[position]
        del self._keys[position]
        del self._key_of[rule_id]
        del self._by_id[rule_id]
        latency = self.timing.deletion_latency(rng=self.rng)
        result = ControlActionResult(latency=latency, shifts=0, position=position)
        self.stats.record("delete", result)
        self._notify("rule_removed", rule)
        return result

    def delete_where(self, predicate: Callable[[Rule], bool]) -> ControlActionResult:
        """Remove every rule satisfying ``predicate``; returns summed latency."""
        doomed = [rule for rule in self._entries if predicate(rule)]
        total_latency = 0.0
        for rule in doomed:
            total_latency += self.delete(rule.rule_id).latency
        return ControlActionResult(latency=total_latency, shifts=0)

    def modify(
        self,
        rule_id: int,
        action: Optional[Action] = None,
        match: Optional[TernaryMatch] = None,
    ) -> ControlActionResult:
        """Rewrite a rule's action and/or match in place (priority unchanged).

        Priority-changing modifications are not a TCAM primitive — the paper
        converts them into delete+insert at the agent layer — so this method
        deliberately has no priority parameter.

        Raises:
            RuleNotFoundError: when no such rule is installed.
        """
        rule = self.get(rule_id)
        position = self._position_of(rule_id)
        updated = Rule(
            match=match if match is not None else rule.match,
            priority=rule.priority,
            action=action if action is not None else rule.action,
            rule_id=rule.rule_id,
            origin_id=rule.origin_id,
        )
        self._entries[position] = updated
        self._by_id[rule_id] = updated
        latency = self.timing.modification_latency(rng=self.rng)
        result = ControlActionResult(latency=latency, shifts=0, position=position)
        self.stats.record("modify", result)
        self._notify("rule_modified", rule, updated)
        return result

    def clear(self) -> ControlActionResult:
        """Delete every rule (used when the Rule Manager empties the shadow)."""
        return self.delete_where(lambda _rule: True)

    # ------------------------------------------------------------------
    # Data-plane lookup
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[Rule]:
        """Return the first (highest-priority) rule matching ``key``, if any."""
        self.stats.lookups += 1
        for rule in self._entries:
            if rule.match.matches(key):
                return rule
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _position_of(self, rule_id: int) -> int:
        """Physical index of an installed rule, found by its sort key."""
        return bisect.bisect_left(self._keys, self._key_of[rule_id])

    def __repr__(self) -> str:
        return (
            f"TcamTable({self.name!r}, occupancy={self.occupancy}/{self.capacity}, "
            f"model={self.timing.name!r})"
        )
