"""The overlap index: which indexed rules overlap a given rule.

Algorithm 1 must find, for every arriving rule, the main-table rules that
overlap it, and a migration must find which of its rules dominate a
main-table resident.  A linear scan is O(table size) per query; production
rule sets make that the dominant cost.  For prefix rules, overlap is
containment one way or the other: the answer is the query prefix's
ancestors (itself included) plus its descendants.

:class:`PrefixRuleIndex` keeps prefix rules in two flat structures, both
keyed by a prefix's *slot key* ``(inverted care bits << 6) | length``:

* a dict from slot key to the rules at that prefix, in insertion order;
* the sorted list of the slot keys in use.

Sorted, the slot keys are the pre-order of a binary prefix trie that visits
the 1-child before the 0-child, so a prefix's descendants form one
contiguous run right after its own key.  Ancestors are one dict probe per
prefix length in use, shortest first (the root path); descendants are one
``bisect`` range of the key list.  Slot keys come from the match's value
and mask by bit arithmetic, so no add or query builds a ``Prefix``.

The Rule Manager owns the one instance over the main table and keeps it in
sync through the table's change listener; Hermes's Algorithm 1 reads that
same instance.  Rules whose match is not prefix-shaped fall back to a small
linear side list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, Optional

from .prefix import MAX_PREFIX_LEN
from .rule import Rule
from .ternary import TernaryMatch

_ALL_ONES = (1 << MAX_PREFIX_LEN) - 1
#: The network mask of every prefix length.
_MASKS = [_ALL_ONES ^ (_ALL_ONES >> length) for length in range(MAX_PREFIX_LEN + 1)]
#: Slot keys keep the prefix length in their low bits.
_LENGTH_BITS = 6
_LENGTH_MASK = (1 << _LENGTH_BITS) - 1


def _slot_key(match: TernaryMatch) -> Optional[int]:
    """The slot key of a prefix-shaped match; None for any other match."""
    if match.width != MAX_PREFIX_LEN:
        return None
    # Prefix-shaped iff the wildcard bits are a low-order run.
    wildcards = match.mask ^ _ALL_ONES
    if wildcards & (wildcards + 1):
        return None
    length = MAX_PREFIX_LEN - wildcards.bit_length()
    return ((match.value ^ match.mask) << _LENGTH_BITS) | length


class PrefixRuleIndex:
    """Overlap index over a rule set (slot map for prefixes, list otherwise)."""

    def __init__(self) -> None:
        self._slots: Dict[int, Dict[int, Rule]] = {}
        self._keys: List[int] = []
        # Prefix lengths with at least one slot, ascending, and the number
        # of slots at each length.
        self._lengths: List[int] = []
        self._slots_at_length = [0] * (MAX_PREFIX_LEN + 1)
        self._key_of: Dict[int, int] = {}
        self._non_prefix: Dict[int, Rule] = {}

    def __len__(self) -> int:
        return len(self._key_of) + len(self._non_prefix)

    def add(self, rule: Rule) -> None:
        """Index one rule.

        Raises:
            ValueError: when the rule id is already indexed.
        """
        rule_id = rule.rule_id
        if rule_id in self._key_of or rule_id in self._non_prefix:
            raise ValueError(f"rule #{rule_id} already indexed")
        key = _slot_key(rule.match)
        if key is None:
            self._non_prefix[rule_id] = rule
            return
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = {}
            insort(self._keys, key)
            length = key & _LENGTH_MASK
            self._slots_at_length[length] += 1
            if self._slots_at_length[length] == 1:
                insort(self._lengths, length)
        slot[rule_id] = rule
        self._key_of[rule_id] = key

    def discard(self, rule_id: int) -> bool:
        """Remove a rule by id; returns False when absent (idempotent)."""
        key = self._key_of.pop(rule_id, None)
        if key is None:
            return self._non_prefix.pop(rule_id, None) is not None
        slot = self._slots[key]
        del slot[rule_id]
        if not slot:
            del self._slots[key]
            del self._keys[bisect_left(self._keys, key)]
            length = key & _LENGTH_MASK
            self._slots_at_length[length] -= 1
            if not self._slots_at_length[length]:
                self._lengths.remove(length)
        return True

    def overlapping(self, rule: Rule) -> List[Rule]:
        """All indexed rules whose match overlaps ``rule``'s match.

        Prefix rules come first, in trie order: the ancestors shortest
        first, then the descendants in pre-order (1-child first); rules at
        one prefix keep insertion order.  Non-prefix rules follow.
        """
        return list(self._iter_overlapping(rule))

    def _iter_overlapping(self, rule: Rule) -> Iterator[Rule]:
        match = rule.match
        slots = self._slots
        key = _slot_key(match)
        if key is not None:
            inverted, length = key >> _LENGTH_BITS, key & _LENGTH_MASK
            for ancestor in self._lengths:
                if ancestor > length:
                    break
                ancestor_key = ((inverted & _MASKS[ancestor]) << _LENGTH_BITS) | ancestor
                slot = slots.get(ancestor_key)
                if slot is not None:
                    yield from slot.values()
            keys = self._keys
            start = bisect_right(keys, key)
            # Past the subtree: the next value of the query's care bits.
            end = (inverted + (1 << (MAX_PREFIX_LEN - length))) << _LENGTH_BITS
            stop = bisect_left(keys, end, start)
            for descendant in keys[start:stop]:
                yield from slots[descendant].values()
        else:
            for candidate_key in self._keys:
                for candidate in slots[candidate_key].values():
                    if candidate.match.overlaps(match):
                        yield candidate
        for candidate in self._non_prefix.values():
            if candidate.match.overlaps(match):
                yield candidate

    def blockers_for(self, rule: Rule) -> List[Rule]:
        """Overlapping rules with strictly higher priority (Algorithm 1)."""
        return [
            candidate
            for candidate in self.overlapping(rule)
            if candidate.priority > rule.priority
        ]

    def dominates_any(self, rule: Rule) -> bool:
        """True when ``rule`` overlaps some indexed rule of strictly lower
        priority, i.e. must sit physically above it; stops at the first."""
        return any(
            candidate.priority < rule.priority
            for candidate in self._iter_overlapping(rule)
        )
