"""Atomic-predicate verification engine over ternary matches.

The decision procedure behind
:func:`repro.analysis.verifier.verify_partition`, in the atomic-predicate
style of AP-Verifier / NetPlumber: partition the key space once into
*atoms* (the coarsest partition in which every rule's match is an exact
union of cells), label each rule with the set of atom ids it covers, and
decide overlap / containment / equivalence with integer-set operations.
Every finding carries a concrete witness key — one representative per
atom — so a reported violation is never a false positive.  The test suite
pins every check against an independent symbolic oracle (region
decomposition with the ternary subtract/intersect algebra).

Two universe backends:

* :class:`_IntervalUniverse` — when every match's care bits form a
  contiguous high-order run (IPv4 prefixes, any width), a match is the key
  interval ``[value, value + size)``.  Atom boundaries are the sorted
  distinct interval endpoints; a rule's atom set is a contiguous ``range``
  of atom ids found by bisection.  Construction is O(n log n) and a rule's
  label is O(log n), which is what makes 200k-rule semantic diffs cheap.
* :class:`_CubeUniverse` — arbitrary ternary matches.  Atoms are kept as
  lists of disjoint ternary cubes and refined match-by-match with the
  ternary intersect/subtract primitives.  Exponential in the worst case
  (capped), but exact, and cheap at the small widths where general ternary
  rules actually appear in this repo.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..tcam.prefix import MAX_PREFIX_LEN
from ..tcam.rule import Rule
from ..tcam.ternary import TernaryMatch
from ..tcam.trie import PrefixRuleIndex
from .violations import (
    DUPLICATE_ENTRY,
    EQUIVALENCE_MISMATCH,
    PRIORITY_INVERSION,
    SHADOWED_RULE,
    UNREACHABLE_RULE,
    Violation,
)

RuleSource = Sequence[Rule]

#: A rule's atom label: a contiguous ``range`` (interval backend) or a
#: sorted tuple of atom ids (cube backend).
AtomSet = Union[range, Tuple[int, ...]]

#: Refinement guard for the cube backend: a pathological general-ternary
#: table at a large width could split the space into exponentially many
#: atoms; fail loudly instead of hanging.
CUBE_ATOM_LIMIT = 1 << 16

#: Below this many candidate pairs the plain Python inversion scan beats
#: building numpy arrays.
_VECTORIZE_THRESHOLD = 4096


def _contiguous_interval(match: TernaryMatch) -> Optional[Tuple[int, int]]:
    """``[lo, hi)`` key interval when care bits are a high-order run, else None."""
    care = match.care_bits
    high_mask = (((1 << care) - 1) << (match.width - care)) if care else 0
    if match.mask != high_mask:
        return None
    return match.value, match.value + match.size


# ---------------------------------------------------------------------------
# Rule sources
# ---------------------------------------------------------------------------
def _rules_of(table) -> List[Rule]:
    """Accept a TcamTable, an installer slice, or a plain rule sequence."""
    getter = getattr(table, "rules", None)
    if callable(getter):
        return list(getter())
    return list(table)


def lookup_order(shadow: RuleSource, main: RuleSource) -> List[Rule]:
    """The pair's first-match order: shadow physical order, then main.

    This mirrors the hardware (and :meth:`HermesInstaller.lookup`): the
    shadow slice has higher lookup priority, and within a slice the TCAM
    returns the topmost entry.
    """
    return _rules_of(shadow) + _rules_of(main)


def find_duplicate_entries(shadow: RuleSource, main: RuleSource) -> List[Violation]:
    """Rule ids physically present more than once across the pair, in
    physical lookup order.

    A retried FlowMod without xid dedup, or a migration that wrote a rule
    into the main table without clearing its shadow copy, leaves the same
    id resident twice; logical deletes then strand the survivor.  One
    violation per repeat; an id's first occurrence is the copy every later
    one duplicates.
    """
    violations: List[Violation] = []
    seen: Dict[int, str] = {}
    for table_name, table in (("shadow", shadow), ("main", main)):
        for rule in _rules_of(table):
            first = seen.get(rule.rule_id)
            if first is None:
                seen[rule.rule_id] = table_name
                continue
            violations.append(
                Violation(
                    kind=DUPLICATE_ENTRY,
                    message=(
                        f"rule #{rule.rule_id} is installed in {first} "
                        f"and again in {table_name}"
                    ),
                    rule_ids=(rule.rule_id,),
                    table=f"{first}+{table_name}",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Atom universes
# ---------------------------------------------------------------------------
class _IntervalUniverse:
    """Atoms as half-open key intervals between sorted boundary points.

    Only valid for matches whose endpoints were registered at construction
    (``atoms_of`` bisects on exact boundaries); :func:`build_universe`
    guarantees that.
    """

    backend = "interval"

    def __init__(self, bounds: List[int], width: int) -> None:
        self._bounds = bounds
        self.width = width

    @property
    def atom_count(self) -> int:
        return len(self._bounds) - 1

    def atoms_of(self, match: TernaryMatch) -> range:
        lo, hi = _contiguous_interval(match)
        return range(bisect_left(self._bounds, lo), bisect_left(self._bounds, hi))

    def witness(self, atom_id: int) -> int:
        """A concrete key inside the atom (its lowest key)."""
        return self._bounds[atom_id]

    def atom_of_key(self, key: int) -> int:
        return bisect_right(self._bounds, key) - 1


class _CubeUniverse:
    """Atoms as lists of disjoint ternary cubes, refined match-by-match."""

    backend = "cube"

    def __init__(self, matches: Sequence[TernaryMatch], width: int) -> None:
        self.width = width
        atoms: List[List[TernaryMatch]] = [[TernaryMatch.wildcard(width)]]
        for match in matches:
            refined: List[List[TernaryMatch]] = []
            for cubes in atoms:
                inside: List[TernaryMatch] = []
                outside: List[TernaryMatch] = []
                for cube in cubes:
                    piece = cube.intersect(match)
                    if piece is not None:
                        inside.append(piece)
                    outside.extend(cube.subtract(match))
                if inside and outside:
                    refined.append(inside)
                    refined.append(outside)
                else:
                    refined.append(cubes)
            atoms = refined
            if len(atoms) > CUBE_ATOM_LIMIT:
                raise ValueError(
                    f"atom refinement exceeded {CUBE_ATOM_LIMIT} cells; "
                    f"general ternary tables this adversarial need a BDD backend"
                )
        self._atoms = atoms
        # Each atom is wholly inside or wholly outside every constructor
        # match, so one key per atom decides membership for all of them.
        self._witnesses = [cubes[0].value for cubes in atoms]

    @property
    def atom_count(self) -> int:
        return len(self._atoms)

    def atoms_of(self, match: TernaryMatch) -> Tuple[int, ...]:
        return tuple(
            atom_id
            for atom_id, key in enumerate(self._witnesses)
            if match.matches(key)
        )

    def witness(self, atom_id: int) -> int:
        return self._witnesses[atom_id]

    def atom_of_key(self, key: int) -> int:
        for atom_id, cubes in enumerate(self._atoms):
            if any(cube.matches(key) for cube in cubes):
                return atom_id
        raise ValueError(f"key {key:#x} outside the {self.width}-bit universe")


def build_universe(
    matches: Iterable[TernaryMatch], width: Optional[int] = None
):
    """Build the atom universe for a set of matches.

    Picks the interval backend when every match is prefix-shaped (at any
    key width), the cube backend otherwise.  Raises ``ValueError`` on mixed
    widths — a pair of tables over different key widths is already invalid.
    """
    distinct: List[TernaryMatch] = []
    seen = set()
    for match in matches:
        if width is None:
            width = match.width
        elif match.width != width:
            raise ValueError(f"width mismatch: {width} vs {match.width}")
        key = (match.value, match.mask)
        if key not in seen:
            seen.add(key)
            distinct.append(match)
    if width is None:
        width = MAX_PREFIX_LEN

    intervals = [_contiguous_interval(match) for match in distinct]
    if all(interval is not None for interval in intervals):
        bounds = {0, 1 << width}
        for lo, hi in intervals:
            bounds.add(lo)
            bounds.add(hi)
        return _IntervalUniverse(sorted(bounds), width)
    return _CubeUniverse(distinct, width)


# ---------------------------------------------------------------------------
# Atom-set algebra
# ---------------------------------------------------------------------------
def atoms_intersect(a: AtomSet, b: AtomSet) -> bool:
    """True when the two labels share an atom (i.e. the matches overlap)."""
    if isinstance(a, range) and isinstance(b, range):
        return max(a.start, b.start) < min(a.stop, b.stop)
    return first_common_atom(a, b) is not None


def first_common_atom(a: AtomSet, b: AtomSet) -> Optional[int]:
    """The smallest shared atom id, or None when disjoint."""
    if isinstance(a, range) and isinstance(b, range):
        lo = max(a.start, b.start)
        return lo if lo < min(a.stop, b.stop) else None
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return a[i]
        if a[i] < b[j]:
            i += 1
        else:
            j += 1
    return None


def atoms_subset(inner: AtomSet, outer: AtomSet) -> bool:
    """True when every atom of ``inner`` is in ``outer`` (containment)."""
    if isinstance(inner, range) and isinstance(outer, range):
        return len(inner) == 0 or (
            inner.start >= outer.start and inner.stop <= outer.stop
        )
    return set(outer).issuperset(inner)


def first_match_winners(rules: Sequence[Rule], universe):
    """Paint the universe in first-match order.

    Returns ``(winner, claimed)`` where ``winner[atom_id]`` is the index of
    the first rule covering that atom (None for uncovered atoms) and
    ``claimed[index]`` is True when the rule won at least one atom — i.e.
    the rule is reachable.  The interval path uses skip pointers with path
    compression, so painting is near-linear in atoms regardless of how many
    rules pile onto the same region.
    """
    winner: List[Optional[int]] = [None] * universe.atom_count
    claimed = [False] * len(rules)
    if universe.backend == "interval":
        nxt = list(range(universe.atom_count + 1))

        def find(atom: int) -> int:
            path = []
            while nxt[atom] != atom:
                path.append(atom)
                atom = nxt[atom]
            for passed in path:
                nxt[passed] = atom
            return atom

        for index, rule in enumerate(rules):
            atoms = universe.atoms_of(rule.match)
            atom = find(atoms.start)
            while atom < atoms.stop:
                winner[atom] = index
                claimed[index] = True
                nxt[atom] = atom + 1
                atom = find(atom + 1)
    else:
        for index, rule in enumerate(rules):
            for atom in universe.atoms_of(rule.match):
                if winner[atom] is None:
                    winner[atom] = index
                    claimed[index] = True
    return winner, claimed


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def _inversion_violation(main_rule: Rule, shadow_rule: Rule) -> Violation:
    overlap = main_rule.match.intersect(shadow_rule.match)
    return Violation(
        kind=PRIORITY_INVERSION,
        message=(
            f"main rule #{main_rule.rule_id} "
            f"(prio {main_rule.priority}) is masked by shadow "
            f"rule #{shadow_rule.rule_id} "
            f"(prio {shadow_rule.priority}) over {overlap}"
        ),
        rule_ids=(main_rule.rule_id, shadow_rule.rule_id),
        table="shadow+main",
        witness=overlap.value if overlap is not None else None,
    )


def _inversion_pairs(
    shadow_rules: Sequence[Rule], main_rules: Sequence[Rule], universe
) -> List[Tuple[int, int]]:
    """(main_index, shadow_index) pairs violating the Algorithm 1 invariant."""
    if not shadow_rules or not main_rules:
        return []
    if (
        universe.backend == "interval"
        and len(shadow_rules) * len(main_rules) >= _VECTORIZE_THRESHOLD
    ):
        count = len(main_rules)
        main_lo = np.fromiter(
            (rule.match.value for rule in main_rules), dtype=np.int64, count=count
        )
        main_hi = np.fromiter(
            (rule.match.value + rule.match.size for rule in main_rules),
            dtype=np.int64,
            count=count,
        )
        main_prio = np.fromiter(
            (rule.priority for rule in main_rules), dtype=np.int64, count=count
        )
        pairs: List[Tuple[int, int]] = []
        for shadow_index, shadow_rule in enumerate(shadow_rules):
            lo, hi = _contiguous_interval(shadow_rule.match)
            hits = (main_prio > shadow_rule.priority) & (main_lo < hi) & (lo < main_hi)
            pairs.extend(
                (int(main_index), shadow_index) for main_index in np.nonzero(hits)[0]
            )
        pairs.sort()
        return pairs
    shadow_labels = [universe.atoms_of(rule.match) for rule in shadow_rules]
    main_labels = [universe.atoms_of(rule.match) for rule in main_rules]
    return [
        (main_index, shadow_index)
        for main_index, main_rule in enumerate(main_rules)
        for shadow_index, shadow_rule in enumerate(shadow_rules)
        if main_rule.priority > shadow_rule.priority
        and atoms_intersect(main_labels[main_index], shadow_labels[shadow_index])
    ]


def ap_priority_inversions(shadow, main, universe) -> List[Violation]:
    """The Algorithm 1 invariant, checked wholesale.

    A main-table rule that overlaps a shadow resident at strictly higher
    priority is masked by the hardware's shadow-first lookup over the
    overlap region — the pair stops behaving like one table (Figure 4(b)).
    Overlap between two prefix-shaped rules is exactly atom-range
    intersection, so the check vectorizes over the main table; reports come
    in (main order, shadow order).
    """
    shadow_rules = _rules_of(shadow)
    main_rules = _rules_of(main)
    return [
        _inversion_violation(main_rules[main_index], shadow_rules[shadow_index])
        for main_index, shadow_index in _inversion_pairs(
            shadow_rules, main_rules, universe
        )
    ]


def ap_semantic_diff(
    system,
    reference,
    universe,
    system_name: str = "shadow+main",
    reference_name: str = "reference",
) -> List[Violation]:
    """Exact semantic diff of two first-match rule lists.

    Paints both rule lists over one shared universe and compares the
    winners atom by atom: a differing action, or a hit on one side with a
    miss on the other, is a mismatch witnessed by the atom's lowest key.
    One report per (system rule, reference rule) pair, so large
    disagreement regions don't flood the output.
    """
    system_rules = _rules_of(system)
    reference_rules = _rules_of(reference)
    system_winner, _ = first_match_winners(system_rules, universe)
    reference_winner, _ = first_match_winners(reference_rules, universe)
    violations: List[Violation] = []
    reported: set = set()
    for atom in range(universe.atom_count):
        system_index = system_winner[atom]
        reference_index = reference_winner[atom]
        if system_index is None and reference_index is None:
            continue
        witness = universe.witness(atom)
        if system_index is not None:
            rule = system_rules[system_index]
            other = (
                None if reference_index is None else reference_rules[reference_index]
            )
            if other is not None and other.action == rule.action:
                continue
            pair = (rule.rule_id, None if other is None else other.rule_id)
            if pair in reported:
                continue
            reported.add(pair)
            if other is None:
                detail = f"{reference_name} matches nothing there"
            else:
                detail = (
                    f"{reference_name} answers with rule #{other.rule_id} "
                    f"({other.action})"
                )
            violations.append(
                Violation(
                    kind=EQUIVALENCE_MISMATCH,
                    message=(
                        f"key {witness:#x}: {system_name} answers with rule "
                        f"#{rule.rule_id} ({rule.action}) but {detail}"
                    ),
                    rule_ids=(rule.rule_id,)
                    + (() if other is None else (other.rule_id,)),
                    table=f"{system_name} vs {reference_name}",
                    witness=witness,
                )
            )
        else:
            other = reference_rules[reference_index]
            pair = (None, other.rule_id)
            if pair in reported:
                continue
            reported.add(pair)
            violations.append(
                Violation(
                    kind=EQUIVALENCE_MISMATCH,
                    message=(
                        f"key {witness:#x}: {reference_name} answers "
                        f"with rule #{other.rule_id} ({other.action}) but "
                        f"{system_name} matches nothing there"
                    ),
                    rule_ids=(other.rule_id,),
                    table=f"{system_name} vs {reference_name}",
                    witness=witness,
                )
            )
    return violations


def ap_unreachable_rules(table, universe, name: str = "table") -> List[Violation]:
    """Rules wholly covered by the entries physically above them.

    An unreachable rule can never win a lookup: it wastes an entry and
    usually marks an upstream bug (a partitioner that failed to subsume, a
    migration that re-wrote a rule below its own blocker).  Forwarding is
    unaffected, so this is a warning, not an error.  A rule is unreachable
    exactly when the first-match painting leaves it with zero atoms.
    """
    rules = _rules_of(table)
    _, claimed = first_match_winners(rules, universe)
    return [
        Violation(
            kind=UNREACHABLE_RULE,
            message=(
                f"rule #{rule.rule_id} ({rule.match}, prio "
                f"{rule.priority}) is wholly covered by the "
                f"{index} entries above it and can never match"
            ),
            rule_ids=(rule.rule_id,),
            table=name,
        )
        for index, rule in enumerate(rules)
        if not claimed[index]
    ]


def ap_shadowed_rules(table, universe, name: str = "table") -> List[Violation]:
    """Rules partially occluded by an earlier overlapping rule whose action
    differs.

    Partial occlusion is what priorities are *for*, so this is purely
    informational — useful when auditing an operator-supplied ruleset for
    surprising interactions, too noisy to enforce on partitioned tables.
    Uses the overlap index over the already-seen rules, so only
    genuine overlap candidates are examined; partial occlusion is
    "labels intersect but mine is not a subset of the prior's".
    """
    rules = _rules_of(table)
    labels = [universe.atoms_of(rule.match) for rule in rules]
    violations: List[Violation] = []
    position_of: Dict[int, int] = {}
    earlier = PrefixRuleIndex()
    for position, rule in enumerate(rules):
        best: Optional[int] = None
        for candidate in earlier.overlapping(rule):
            candidate_position = position_of[candidate.rule_id]
            if candidate.action != rule.action and not atoms_subset(
                labels[position], labels[candidate_position]
            ):
                if best is None or candidate_position < best:
                    best = candidate_position
        if best is not None:
            prior = rules[best]
            violations.append(
                Violation(
                    kind=SHADOWED_RULE,
                    message=(
                        f"rule #{rule.rule_id} loses part of {rule.match} "
                        f"to rule #{prior.rule_id} ({prior.action} vs "
                        f"{rule.action})"
                    ),
                    rule_ids=(rule.rule_id, prior.rule_id),
                    table=name,
                )
            )
        try:
            earlier.add(rule)
            position_of.setdefault(rule.rule_id, position)
        except ValueError:
            pass  # duplicate id in the same table: reported elsewhere
    return violations
