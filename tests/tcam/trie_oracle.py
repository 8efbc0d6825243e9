"""The binary prefix trie: the order oracle for the overlap index.

``repro.tcam.trie.PrefixRuleIndex`` answers overlap queries from a flat
slot map and one sorted key list, and claims to return exactly what a
binary trie of per-bit nodes returns, in the same order: the rules on the
query's root path (shortest prefix first), then the rules in its subtree
in pre-order with the 1-child first, each node's rules in insertion order,
and non-prefix rules last.  Algorithm 1's blocker order, and through it
every pinned digest, rests on that order.

This module keeps the trie the index replaced, and :class:`TrieRuleIndex`,
the same index API over it.  None of it runs in production; the tests hold
the index to it under random churn.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.tcam.prefix import MAX_PREFIX_LEN, Prefix
from repro.tcam.rule import Rule


class _TrieNode:
    __slots__ = ("children", "rules")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.rules: Dict[int, Rule] = {}


class PrefixTrie:
    """A binary trie over IPv4 prefixes holding rules at their nodes."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, rule: Rule) -> None:
        """Store ``rule`` at ``prefix``'s node.

        Raises:
            ValueError: when the rule id is already stored at this prefix.
        """
        node = self._descend(prefix, create=True)
        if rule.rule_id in node.rules:
            raise ValueError(f"rule #{rule.rule_id} already indexed at {prefix}")
        node.rules[rule.rule_id] = rule
        self._size += 1

    def remove(self, prefix: Prefix, rule_id: int) -> bool:
        """Remove one rule; returns False when absent (idempotent)."""
        node = self._descend(prefix, create=False)
        if node is None or rule_id not in node.rules:
            return False
        del node.rules[rule_id]
        self._size -= 1
        return True

    def overlapping(self, prefix: Prefix) -> Iterator[Rule]:
        """Yield every stored rule whose prefix overlaps ``prefix``: the
        root path (ancestors and the node itself), then the subtree."""
        node = self._root
        yield from node.rules.values()
        for depth in range(prefix.length):
            bit = (prefix.network >> (MAX_PREFIX_LEN - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return
            yield from node.rules.values()
        stack = [child for child in node.children if child is not None]
        while stack:
            current = stack.pop()
            yield from current.rules.values()
            stack.extend(child for child in current.children if child is not None)

    def _descend(self, prefix: Prefix, create: bool) -> Optional[_TrieNode]:
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (MAX_PREFIX_LEN - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                if not create:
                    return None
                child = _TrieNode()
                node.children[bit] = child
            node = child
        return node


class TrieRuleIndex:
    """``PrefixRuleIndex``'s API over :class:`PrefixTrie` (list otherwise)."""

    def __init__(self) -> None:
        self._trie = PrefixTrie()
        self._non_prefix: Dict[int, Rule] = {}
        self._prefix_of: Dict[int, Prefix] = {}

    def __len__(self) -> int:
        return len(self._trie) + len(self._non_prefix)

    def add(self, rule: Rule) -> None:
        if rule.rule_id in self._prefix_of or rule.rule_id in self._non_prefix:
            raise ValueError(f"rule #{rule.rule_id} already indexed")
        prefix = rule.match.to_prefix()
        if prefix is None:
            self._non_prefix[rule.rule_id] = rule
        else:
            self._trie.insert(prefix, rule)
            self._prefix_of[rule.rule_id] = prefix

    def discard(self, rule_id: int) -> bool:
        prefix = self._prefix_of.pop(rule_id, None)
        if prefix is not None:
            return self._trie.remove(prefix, rule_id)
        return self._non_prefix.pop(rule_id, None) is not None

    def overlapping(self, rule: Rule) -> List[Rule]:
        return list(self._iter_overlapping(rule))

    def _iter_overlapping(self, rule: Rule) -> Iterator[Rule]:
        prefix = rule.match.to_prefix()
        if prefix is not None:
            yield from self._trie.overlapping(prefix)
        else:
            yield from (
                candidate
                for candidate in self._trie.overlapping(Prefix.default_route())
                if candidate.match.overlaps(rule.match)
            )
        yield from (
            candidate
            for candidate in self._non_prefix.values()
            if candidate.match.overlaps(rule.match)
        )

    def blockers_for(self, rule: Rule) -> List[Rule]:
        return [
            candidate
            for candidate in self.overlapping(rule)
            if candidate.priority > rule.priority
        ]

    def dominates_any(self, rule: Rule) -> bool:
        return any(
            candidate.priority < rule.priority
            for candidate in self._iter_overlapping(rule)
        )
