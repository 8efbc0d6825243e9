"""Table snapshots: JSON-serializable captures for offline verification.

A snapshot freezes the physical contents of a shadow+main pair (plus an
optional reference monolithic table) at one instant, in physical order, so
the :mod:`repro.analysis.verifier` checks can run out-of-process — in CI,
against a file attached to a bug report, or long after the simulation that
produced it ended.  The format is deliberately dumb: a versioned dict of
rule lists, with matches rendered through the same strings
:meth:`TernaryMatch.from_string` parses, so snapshots stay greppable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..tcam.rule import Action, Rule
from ..tcam.ternary import TernaryMatch

FORMAT = "hermes-table-snapshot/1"


def rule_to_dict(rule: Rule) -> dict:
    """Serialize one rule (match as its canonical string form)."""
    return {
        "match": str(rule.match),
        "width": rule.match.width,
        "priority": rule.priority,
        "action": str(rule.action),
        "rule_id": rule.rule_id,
        "origin_id": rule.origin_id,
    }


def rule_from_dict(data: dict) -> Rule:
    """Rebuild a rule from :func:`rule_to_dict` output."""
    match = TernaryMatch.from_string(data["match"])
    if match.width != data.get("width", match.width):
        raise ValueError(
            f"match {data['match']!r} parsed to width {match.width}, "
            f"snapshot says {data['width']}"
        )
    action_text = data["action"]
    if action_text.startswith("output:"):
        action = Action.output(int(action_text.split(":", 1)[1]))
    elif action_text == "drop":
        action = Action.drop()
    elif action_text == "controller":
        action = Action.to_controller()
    else:
        raise ValueError(f"unknown action {action_text!r}")
    return Rule(
        match=match,
        priority=data["priority"],
        action=action,
        rule_id=data["rule_id"],
        origin_id=data.get("origin_id"),
    )


@dataclass
class TableSnapshot:
    """A deserialized snapshot: rule lists in physical (lookup) order."""

    tables: Dict[str, List[Rule]] = field(default_factory=dict)
    reference: Optional[List[Rule]] = None

    @property
    def shadow(self) -> List[Rule]:
        """The shadow slice (empty for monolithic snapshots)."""
        return self.tables.get("shadow", [])

    @property
    def main(self) -> List[Rule]:
        """The main slice, falling back to a monolithic table."""
        return self.tables.get("main", self.tables.get("monolithic", []))


def snapshot_tables(
    tables: Dict[str, Sequence[Rule]],
    reference: Optional[Sequence[Rule]] = None,
) -> dict:
    """Serialize named tables (and an optional reference) to a JSON dict."""

    def rules_of(source) -> List[dict]:
        getter = getattr(source, "rules", None)
        rules = getter() if callable(getter) else source
        return [rule_to_dict(rule) for rule in rules]

    payload: dict = {
        "format": FORMAT,
        "tables": {name: rules_of(source) for name, source in tables.items()},
    }
    if reference is not None:
        payload["reference"] = rules_of(reference)
    return payload


def load_snapshot(data: dict) -> TableSnapshot:
    """Parse a snapshot dict back into rule lists.

    Raises:
        ValueError: on a missing/unknown format tag or malformed rules.
    """
    if data.get("format") != FORMAT:
        raise ValueError(
            f"not a table snapshot (format={data.get('format')!r}, "
            f"expected {FORMAT!r})"
        )
    tables = {
        name: [rule_from_dict(entry) for entry in rules]
        for name, rules in data.get("tables", {}).items()
    }
    reference = data.get("reference")
    if reference is not None:
        reference = [rule_from_dict(entry) for entry in reference]
    return TableSnapshot(tables=tables, reference=reference)


@dataclass(frozen=True)
class SnapshotDelta:
    """What changed between two captures of the *same* switch.

    Rule ids are the join key (they are stable across tables and over
    time); each id lands in exactly one bucket.  ``moved`` means the rule
    is byte-identical but lives in a different slice (a migration);
    ``modified`` means its match, priority, or action changed.
    """

    added: tuple = ()
    removed: tuple = ()
    moved: tuple = ()
    modified: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.moved or self.modified)

    @property
    def changed_ids(self) -> frozenset:
        """Every rule id that differs between the captures."""
        return frozenset(self.added + self.removed + self.moved + self.modified)

    def to_dict(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "moved": list(self.moved),
            "modified": list(self.modified),
        }


def _index_by_id(snapshot: TableSnapshot) -> Dict[int, tuple]:
    index: Dict[int, tuple] = {}
    for name in ("shadow", "main"):
        for rule in getattr(snapshot, name):
            # First physical occurrence wins; duplicates are a verifier
            # finding, not a diffing concern.
            index.setdefault(rule.rule_id, (name, rule))
    return index


def diff_snapshots(older: TableSnapshot, newer: TableSnapshot) -> SnapshotDelta:
    """Diff two captures of the same switch taken at different instants."""
    before = _index_by_id(older)
    after = _index_by_id(newer)
    added = sorted(rule_id for rule_id in after if rule_id not in before)
    removed = sorted(rule_id for rule_id in before if rule_id not in after)
    moved: List[int] = []
    modified: List[int] = []
    for rule_id in sorted(before.keys() & after.keys()):
        old_table, old_rule = before[rule_id]
        new_table, new_rule = after[rule_id]
        if old_rule != new_rule:
            modified.append(rule_id)
        elif old_table != new_table:
            moved.append(rule_id)
    return SnapshotDelta(
        added=tuple(added),
        removed=tuple(removed),
        moved=tuple(moved),
        modified=tuple(modified),
    )


def dump_snapshot(payload: dict, path: str) -> None:
    """Write a snapshot dict to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_snapshot(path: str) -> TableSnapshot:
    """Load and parse a snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        return load_snapshot(json.load(handle))
