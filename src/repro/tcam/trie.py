"""A binary prefix trie indexing rules by their match prefix.

Algorithm 1 must find, for every arriving rule, the main-table rules that
overlap it, and a migration must find which of its rules dominate a
main-table resident.  A linear scan is O(table size) per query; production
rule sets make that the dominant cost.  For prefix rules, overlap is
containment one way or the other, so a binary trie answers the query in
O(32 + answer): ancestors of the query prefix lie on the root path,
descendants in its subtree.

:class:`PrefixRuleIndex` is the rule-facing wrapper.  The Rule Manager owns
the one instance over the main table and keeps it in sync through the
table's change listener; Hermes's Algorithm 1 reads that same instance.
Rules whose match is not prefix-shaped fall back to a small linear side
list.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .prefix import MAX_PREFIX_LEN, Prefix
from .rule import Rule


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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def overlapping(self, prefix: Prefix) -> Iterator[Rule]:
        """Yield every stored rule whose prefix overlaps ``prefix``.

        For prefixes, overlap means one contains the other: the result is
        the rules on the root path (ancestors, including the node itself)
        plus the rules in the node's subtree (descendants).
        """
        node = self._root
        yield from node.rules.values()
        for depth in range(prefix.length):
            bit = (prefix.network >> (MAX_PREFIX_LEN - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return
            yield from node.rules.values()
        # ``node`` is now the prefix's own node (already yielded): walk the
        # subtree for descendants.
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


class PrefixRuleIndex:
    """Overlap index over a rule set (trie for prefixes, list otherwise)."""

    def __init__(self) -> None:
        self._trie = PrefixTrie()
        self._non_prefix: Dict[int, Rule] = {}
        self._prefix_of: Dict[int, Prefix] = {}

    def __len__(self) -> int:
        return len(self._trie) + len(self._non_prefix)

    def add(self, rule: Rule) -> None:
        """Index one rule.

        Raises:
            ValueError: when the rule id is already indexed.
        """
        if rule.rule_id in self._prefix_of or rule.rule_id in self._non_prefix:
            raise ValueError(f"rule #{rule.rule_id} already indexed")
        prefix = rule.match.to_prefix()
        if prefix is None:
            self._non_prefix[rule.rule_id] = rule
        else:
            self._trie.insert(prefix, rule)
            self._prefix_of[rule.rule_id] = prefix

    def discard(self, rule_id: int) -> bool:
        """Remove a rule by id; returns False when absent (idempotent)."""
        prefix = self._prefix_of.pop(rule_id, None)
        if prefix is not None:
            return self._trie.remove(prefix, rule_id)
        return self._non_prefix.pop(rule_id, None) is not None

    def overlapping(self, rule: Rule) -> List[Rule]:
        """All indexed rules whose match overlaps ``rule``'s match."""
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
