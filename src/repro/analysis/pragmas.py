"""Suppression pragmas, parsed once and shared by every analysis family.

Two pragma namespaces live in the tree, each written as a ``#`` comment:

* ``det: allow(rule, ...) -- why`` — the determinism lint's per-line
  suppressions (:mod:`repro.analysis.lint`).
* ``race: allow(rule, ...) -- why`` — the schedule-order race
  sanitizer's call-site suppressions (:mod:`repro.analysis.races`): a
  ``schedule()`` call carrying one declares that same-instant ordering
  against its peers is intentional and pinned by tests.

Both follow the same grammar: the pragma names one or more rules, must
justify itself after ``--`` (an unjustified pragma is itself a finding),
applies to its own line, and — when it is a standalone comment line —
also to the line directly below.  Only comment tokens are read (with
:mod:`tokenize`): the same text in a string literal or a docstring is
not a pragma.  This module is the single parser for
that grammar; rule families consume a :class:`PragmaIndex` instead of
re-walking comment lines themselves.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Sequence, Set, Tuple

#: The determinism-lint namespace (``det: allow(...)``).
DET = "det"
#: The race-sanitizer namespace (``race: allow(...)``).
RACE = "race"


def pragma_pattern(namespace: str) -> re.Pattern:
    """The compiled pragma regex for one namespace.

    Group 1 captures the comma-separated rule list, group 2 the
    justification (empty when missing).
    """
    return re.compile(
        rf"#\s*{re.escape(namespace)}:\s*allow\(([^)]*)\)\s*(?:--|—)?\s*(\S?.*)$"
    )


class PragmaIndex:
    """Per-line suppressions of one namespace over one file's lines.

    Only comment tokens count: pragma text inside a string literal or a
    docstring suppresses nothing.

    Attributes:
        allowed: line number -> set of rule names suppressed there.
        sites: ``(line, col, text, rules)`` of every pragma, in line order.
        unjustified: ``(line, col, text)`` of pragmas with no reason.
    """

    def __init__(self, namespace: str, lines: Sequence[str]) -> None:
        """Parse every pragma of ``namespace`` out of ``lines``."""
        self.namespace = namespace
        self.allowed: Dict[int, Set[str]] = {}
        self.sites: List[Tuple[int, int, str, Set[str]]] = []
        self.unjustified: List[Tuple[int, int, str]] = []
        pattern = pragma_pattern(namespace)
        for number, col, comment in _comments(lines):
            match = pattern.search(comment)
            if match is None:
                continue
            line = lines[number - 1]
            rules = {
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            }
            site = (number, col + match.start(), line.strip())
            self.sites.append(site + (rules,))
            if not match.group(2).strip():
                self.unjustified.append(site)
            self.allowed.setdefault(number, set()).update(rules)
            if not line[:col].strip():
                # A standalone pragma comment covers the line below it.
                self.allowed.setdefault(number + 1, set()).update(rules)

    def allows(self, line: int, rule: str) -> bool:
        """True when ``rule`` is suppressed on ``line``."""
        return rule in self.allowed.get(line, set())


def _comments(lines: Sequence[str]) -> List[Tuple[int, int, str]]:
    """``(line, col, text)`` of every comment token in ``lines``.

    A source that stops tokenizing part-way keeps the comments read
    before the break; the lint's parse reports the syntax error itself.
    """
    source = io.StringIO("".join(line + "\n" for line in lines))
    found: List[Tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.COMMENT:
                found.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, SyntaxError):
        pass
    return found


_FILE_CACHE: Dict[Tuple[str, str], PragmaIndex] = {}


def file_pragmas(path: str, namespace: str) -> PragmaIndex:
    """The (cached) :class:`PragmaIndex` of a source file on disk.

    Used by the race sanitizer to check scheduling call sites at run time;
    unreadable files index as empty (nothing suppressed).  The cache is
    keyed by path only — analysis runs are short-lived relative to edits.
    """
    key = (path, namespace)
    if key not in _FILE_CACHE:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            lines = []
        _FILE_CACHE[key] = PragmaIndex(namespace, lines)
    return _FILE_CACHE[key]


def clear_pragma_cache() -> None:
    """Drop the file-pragma cache (tests that rewrite fixtures call this)."""
    _FILE_CACHE.clear()
