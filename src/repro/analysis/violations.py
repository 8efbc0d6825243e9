"""The violation taxonomy of the ruleset verifier.

Every checker in :mod:`repro.analysis.verifier` reports its findings as
:class:`Violation` records — structured, sortable, and serializable — so
that experiments can count them, tests can assert on exact kinds, and the
CLI can render them uniformly.  A violation's ``kind`` is one of the
constants below; ``severity`` separates semantics-breaking findings
(*errors*: the shadow+main pair no longer behaves like one monolithic
table) from harmless-but-suspicious ones (*warnings*: dead entries that
waste TCAM space without changing forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

#: A main-table rule overlaps a shadow resident at strictly higher priority:
#: the hardware's shadow-first lookup masks the main rule over the overlap,
#: inverting priority order (the Algorithm 1 invariant, Figure 4(b)).
PRIORITY_INVERSION = "priority-inversion"

#: The same rule_id is physically present more than once across the pair —
#: what a retried write without dedup (or a buggy migration) leaves behind.
DUPLICATE_ENTRY = "duplicate-entry"

#: A rule is wholly covered by higher-precedence rules in its own table and
#: can never match a packet.  Harmless to forwarding (warning), but it wastes
#: an entry and usually signals a partitioner or migration bug upstream.
UNREACHABLE_RULE = "unreachable-rule"

#: A rule is partially occluded by a higher-precedence overlapping rule with
#: a *different* action.  Expected in priority-ordered tables (that is what
#: priorities are for), so this is informational and off by default.
SHADOWED_RULE = "shadowed-rule"

#: Some concrete key forwards differently through the shadow+main pair than
#: through the reference monolithic table.
EQUIVALENCE_MISMATCH = "equivalence-mismatch"

ERROR_KINDS = frozenset(
    {
        PRIORITY_INVERSION,
        DUPLICATE_ENTRY,
        EQUIVALENCE_MISMATCH,
    }
)

WARNING_KINDS = frozenset({UNREACHABLE_RULE, SHADOWED_RULE})

ALL_KINDS = ERROR_KINDS | WARNING_KINDS


@dataclass(frozen=True)
class Violation:
    """One finding of the ruleset verifier.

    Attributes:
        kind: one of the module-level kind constants.
        message: human-readable description naming the rules involved.
        rule_ids: ids of the implicated rules, most-guilty first.
        table: the table (or table pair) the finding is about.
        witness: a concrete key demonstrating the violation, when the
            checker can produce one (equivalence and inversion findings).
        severity: ``"error"`` or ``"warning"``, derived from ``kind``.
    """

    kind: str
    message: str
    rule_ids: Tuple[int, ...] = ()
    table: str = ""
    witness: Optional[int] = None
    severity: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown violation kind {self.kind!r}")
        derived = "error" if self.kind in ERROR_KINDS else "warning"
        if self.severity and self.severity != derived:
            raise ValueError(
                f"severity {self.severity!r} contradicts kind {self.kind!r}"
            )
        object.__setattr__(self, "severity", derived)

    @property
    def is_error(self) -> bool:
        """True for semantics-breaking findings."""
        return self.severity == "error"

    def to_dict(self) -> dict:
        """JSON-friendly rendering (used by the CLI and experiment extras)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "rule_ids": list(self.rule_ids),
            "table": self.table,
            "witness": self.witness,
        }

    def __str__(self) -> str:
        location = f" [{self.table}]" if self.table else ""
        witness = f" (witness key {self.witness:#x})" if self.witness is not None else ""
        return f"{self.severity}: {self.kind}{location}: {self.message}{witness}"
