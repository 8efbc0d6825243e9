"""Per-operation work of the TCAM model and the conflict check, counted.

A table action must find its slot without walking the table, and the
migration conflict check must cost one index query per batch rule rather
than a scan of the resident table.  Wall-clock gates for this depend on the
host; these tests count the work instead, so a return of a linear scan
fails on any machine:

* ``Rule.__eq__`` raises while the measured code runs, which catches
  ``list.index`` / ``list.remove`` / ``in`` scans over rule lists;
* reads of ``Rule.priority`` and calls of ``TernaryMatch.overlaps`` are
  counted, which catches priority walks and pairwise overlap scans;
* ``Prefix`` constructions are counted where the overlap index must find
  a rule's slot by bit arithmetic alone.

Each test also runs a linear reference under the same counters and checks
that it blows the bound, so the counters are known to see a scan.
"""

from collections import Counter

import pytest

from repro.tcam import Action, Prefix, Rule, TcamTable, TernaryMatch, pica8_p3290
from repro.tcam.moveplan import conflicts_with_resident
from repro.tcam.trie import PrefixRuleIndex

from .conflict_oracle import pairwise_conflicts
from .test_table_stateful import walk_insertion_position
from .trie_oracle import TrieRuleIndex

RESIDENT = 4096
PRIORITY_CLASSES = 16


class RuleWork:
    """Patches ``Rule`` and ``TernaryMatch`` to count (or forbid) work."""

    def __init__(self, monkeypatch) -> None:
        self.counts = Counter()
        self._monkeypatch = monkeypatch

    def start(self) -> None:
        counts = self.counts
        real_overlaps = TernaryMatch.overlaps

        def counting_getattribute(rule, name):
            if name == "priority":
                counts["priority"] += 1
            return object.__getattribute__(rule, name)

        def forbidden_eq(rule, other):
            raise AssertionError("Rule.__eq__ called: a scan compared rules")

        def counting_overlaps(match, other):
            counts["overlaps"] += 1
            return real_overlaps(match, other)

        self._monkeypatch.setattr(Rule, "__getattribute__", counting_getattribute)
        self._monkeypatch.setattr(Rule, "__eq__", forbidden_eq)
        self._monkeypatch.setattr(TernaryMatch, "overlaps", counting_overlaps)

    def stop(self) -> None:
        self._monkeypatch.undo()

    def reset(self) -> None:
        self.counts.clear()

    @property
    def touches(self) -> int:
        return self.counts["priority"] + self.counts["overlaps"]


@pytest.fixture
def work(monkeypatch):
    return RuleWork(monkeypatch)


def slash24(index):
    """The ``index``-th /24 inside 10.0.0.0/12."""
    return Prefix((10 << 24) | (index << 8), 24)


def host_in(prefix, host):
    return Prefix(prefix.network | host, 32)


class TestTableActionsDoNotScan:
    """Insert, delete and modify touch O(1) rules on a table of thousands."""

    PER_ACTION = 2

    def populated_table(self):
        table = TcamTable(pica8_p3290(), capacity=2 * RESIDENT)
        resident = [
            Rule.from_prefix(slash24(i), i % PRIORITY_CLASSES, Action.output(1))
            for i in range(RESIDENT)
        ]
        for installed in resident:
            table.insert(installed)
        return table, resident

    def test_insert_delete_modify(self, work):
        table, resident = self.populated_table()
        newcomers = [
            Rule.from_prefix(
                host_in(slash24(i), 7),
                # Existing classes (equal-priority runs), plus one new class
                # above and one below every resident.
                [3, 9, 0, PRIORITY_CLASSES - 1, PRIORITY_CLASSES + 5, -1][i % 6],
                Action.output(2),
            )
            for i in range(48)
        ]
        # Spread over the table, including its bottom-most entries.
        victims = resident[::97] + table.rules()[-8:]
        modified = resident[13::89]

        work.start()
        actions = deletes = 0
        for rule in newcomers:
            table.insert(rule)
            actions += 1
        for rule in modified:
            table.modify(rule.rule_id, action=Action.output(3))
            actions += 1
        for rule in victims:
            if rule.rule_id in table:
                table.delete(rule.rule_id)
                actions += 1
                deletes += 1
        # Delete-then-reinsert lands the rule at the bottom of its class.
        again = newcomers[0]
        table.delete(again.rule_id)
        table.insert(again)
        actions += 2
        spent, spent_counts = work.touches, dict(work.counts)
        work.reset()
        walk_insertion_position(table.rules(), -2)
        reference = work.touches
        work.stop()

        assert spent <= self.PER_ACTION * actions, spent_counts
        assert reference > self.PER_ACTION * actions
        assert len(table) == RESIDENT + len(newcomers) - deletes


class TestConflictCheckDoesNotScan:
    """``conflicts_with_resident`` costs O(batch), not O(batch x resident)."""

    PER_BATCH_RULE = 16
    NON_PREFIX = 4

    def resident_rules(self):
        rules = [
            Rule.from_prefix(slash24(i), 100, Action.output(1))
            for i in range(RESIDENT)
        ]
        # General ternary rules (every other address of 172.16.x.0/24) go
        # to the index's linear side list, which stays small.
        for i in range(self.NON_PREFIX):
            base = (172 << 24) | (16 << 16) | (i << 8)
            mask = 0xFFFFFF01
            rules.append(Rule(TernaryMatch(base | 1, mask), 100, Action.output(1)))
        return rules

    def batch(self):
        rules = []
        for i in range(64):
            kind = i % 4
            if kind in (0, 1):
                # Dominates its resident /24.
                prefix, priority = host_in(slash24(i * 61), 9), 200
            elif kind == 2:
                # Overlaps a resident /24 but ranks below it.
                prefix, priority = host_in(slash24(i * 61), 9), 50
            else:
                # Overlaps nothing.
                prefix = Prefix((192 << 24) | (168 << 16) | (i << 8), 24)
                priority = 200
            rules.append(Rule.from_prefix(prefix, priority, Action.output(2)))
        host = TernaryMatch((172 << 24) | (16 << 16) | 3, 0xFFFFFFFF)
        rules.append(Rule(host, 200, Action.output(2)))
        return rules

    def test_one_index_query_per_batch_rule(self, work):
        resident = self.resident_rules()
        batch = self.batch()
        index = PrefixRuleIndex()
        for installed in resident:
            index.add(installed)
        expected = pairwise_conflicts(batch, resident)

        work.start()
        conflicted = conflicts_with_resident(batch, index)
        spent, spent_counts = work.touches, dict(work.counts)
        work.reset()
        pairwise_conflicts(batch[2:4], resident)
        reference = work.touches
        work.stop()

        bound = self.PER_BATCH_RULE * len(batch)
        assert conflicted == expected
        assert len(conflicted) == 33
        assert spent <= bound, spent_counts
        assert reference > bound


class TestOverlapIndexBuildsNoPrefix:
    """Index adds and queries take a rule's slot from its value and mask:
    not one ``Prefix`` is constructed."""

    QUERIES = 64

    @staticmethod
    def count_prefixes(monkeypatch, counts):
        real_post_init = Prefix.__post_init__

        def counting_post_init(prefix):
            counts["prefix"] += 1
            real_post_init(prefix)

        monkeypatch.setattr(Prefix, "__post_init__", counting_post_init)

    @staticmethod
    def slash24_rule(index, priority):
        network = (10 << 24) | (index << 8)
        return Rule(TernaryMatch(network, 0xFFFFFF00), priority, Action.output(1))

    def index_and_query(self, index):
        for i in range(RESIDENT):
            index.add(self.slash24_rule(i, i % PRIORITY_CLASSES))
        queries = [
            self.slash24_rule(i * 61, -1) for i in range(self.QUERIES)
        ]
        return [index.blockers_for(query) for query in queries]

    def test_add_and_query_build_no_prefix(self, monkeypatch):
        counts = Counter()
        self.count_prefixes(monkeypatch, counts)
        answers = self.index_and_query(PrefixRuleIndex())
        spent = counts["prefix"]
        counts.clear()
        self.index_and_query(TrieRuleIndex())
        reference = counts["prefix"]
        monkeypatch.undo()

        assert spent == 0
        assert reference >= RESIDENT + self.QUERIES
        assert all(answers)
