"""IPv4 prefix algebra.

Hermes's correctness algorithms (Section 4 of the paper) manipulate rules whose
match fields are IP prefixes: detecting overlaps between a new rule and the
rules resident in the main table, *cutting* the new rule so that no overlap
remains, and *merging* the resulting fragments back into the minimal number of
prefixes.  This module provides that algebra as a small, well-tested value
type.

A :class:`Prefix` is canonical: all host bits (bits beyond ``length``) are
zero.  Construction with non-zero host bits raises :class:`ValueError` so that
bugs surface at creation time rather than during comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

MAX_PREFIX_LEN = 32
_ADDRESS_SPACE = 1 << MAX_PREFIX_LEN


def _mask_for(length: int) -> int:
    """Return the 32-bit network mask for a prefix of the given length."""
    if length == 0:
        return 0
    return ((1 << length) - 1) << (MAX_PREFIX_LEN - length)


@dataclass(frozen=True, order=True)
class Prefix:
    """A canonical IPv4 prefix, e.g. ``192.168.1.0/24``.

    Attributes:
        network: the network address as a 32-bit unsigned integer.
        length: the prefix length in ``[0, 32]``.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= MAX_PREFIX_LEN:
            raise ValueError(f"prefix length {self.length} out of range [0, 32]")
        if not 0 <= self.network < _ADDRESS_SPACE:
            raise ValueError(f"network {self.network:#x} is not a 32-bit address")
        if self.network & ~_mask_for(self.length):
            raise ValueError(
                f"prefix {self.network:#010x}/{self.length} has non-zero host bits"
            )

    # ------------------------------------------------------------------
    # Construction and formatting
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, implying /32)."""
        if "/" in text:
            address_part, _, length_part = text.partition("/")
            length = int(length_part)
        else:
            address_part, length = text, MAX_PREFIX_LEN
        octets = address_part.split(".")
        if len(octets) != 4:
            raise ValueError(f"malformed IPv4 address: {address_part!r}")
        network = 0
        for octet_text in octets:
            octet = int(octet_text)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet {octet} out of range in {text!r}")
            network = (network << 8) | octet
        return cls(network, length)

    @classmethod
    def default_route(cls) -> "Prefix":
        """Return ``0.0.0.0/0``, which matches every address."""
        return cls(0, 0)

    def __str__(self) -> str:
        octets = [(self.network >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return f"{octets[0]}.{octets[1]}.{octets[2]}.{octets[3]}/{self.length}"

    # ------------------------------------------------------------------
    # Relational algebra
    # ------------------------------------------------------------------
    @property
    def mask(self) -> int:
        """The 32-bit network mask of this prefix."""
        return _mask_for(self.length)

    @property
    def size(self) -> int:
        """The number of addresses this prefix covers."""
        return 1 << (MAX_PREFIX_LEN - self.length)

    @property
    def first_address(self) -> int:
        """The lowest address covered by this prefix."""
        return self.network

    @property
    def last_address(self) -> int:
        """The highest address covered by this prefix."""
        return self.network | (~self.mask & (_ADDRESS_SPACE - 1))

    def matches(self, address: int) -> bool:
        """Return True when ``address`` falls inside this prefix."""
        return (address & self.mask) == self.network

    def contains(self, other: "Prefix") -> bool:
        """Return True when ``other`` is wholly inside this prefix."""
        return self.length <= other.length and (other.network & self.mask) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """Return True when the two prefixes share any address.

        For prefixes, overlap is equivalent to one containing the other.
        """
        return self.contains(other) or other.contains(self)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def split(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two child prefixes of length ``length + 1``."""
        if self.length >= MAX_PREFIX_LEN:
            raise ValueError(f"cannot split a host prefix: {self}")
        child_length = self.length + 1
        bit = 1 << (MAX_PREFIX_LEN - child_length)
        return Prefix(self.network, child_length), Prefix(self.network | bit, child_length)

    def parent(self) -> "Prefix":
        """Return the enclosing prefix of length ``length - 1``."""
        if self.length == 0:
            raise ValueError("the default route has no parent")
        parent_length = self.length - 1
        return Prefix(self.network & _mask_for(parent_length), parent_length)

    def sibling(self) -> "Prefix":
        """Return the other child of this prefix's parent."""
        if self.length == 0:
            raise ValueError("the default route has no sibling")
        bit = 1 << (MAX_PREFIX_LEN - self.length)
        return Prefix(self.network ^ bit, self.length)

    def subtract(self, other: "Prefix") -> List["Prefix"]:
        """Return the minimal prefix set covering ``self`` minus ``other``.

        This is the *cut* primitive of Hermes's Algorithm 1: when a new rule
        (``self``) is subsumed-overlapped by a higher-priority main-table rule
        (``other``), the new rule is fragmented so that the overlap region is
        excised.  The result is the at-most ``other.length - self.length``
        sibling prefixes hanging off the path from ``other`` up to ``self``.
        """
        if not self.contains(other):
            if other.contains(self):
                return []  # entirely consumed; nothing remains
            return [self]  # disjoint; nothing to cut
        remainder: List[Prefix] = []
        current = other
        while current.length > self.length:
            remainder.append(current.sibling())
            current = current.parent()
        remainder.reverse()  # largest fragments first, purely cosmetic
        return remainder


def merge_prefixes(prefixes: Sequence[Prefix]) -> List[Prefix]:
    """Merge a set of prefixes into the minimal equivalent covering set.

    Removes prefixes contained in others and repeatedly coalesces sibling
    pairs into their parent.  This is the *merge* step of Algorithm 1 (the
    paper cites the optimal merge of EffiCuts [59]); for prefix sets the
    sibling-coalescing fixpoint is optimal.
    """
    distinct = sorted(set(prefixes))
    # Drop any prefix contained in a shorter one.  Sorting places the
    # containing prefix before its children, so one linear scan suffices.
    kept: List[Prefix] = []
    for prefix in distinct:
        if kept and kept[-1].contains(prefix):
            continue
        kept = [p for p in kept if not prefix.contains(p)]
        kept.append(prefix)
    # Coalesce sibling pairs to a fixpoint.
    merged = True
    current = set(kept)
    while merged:
        merged = False
        for prefix in sorted(current, key=lambda p: -p.length):
            if prefix not in current or prefix.length == 0:
                continue
            sibling = prefix.sibling()
            if sibling in current:
                current.discard(prefix)
                current.discard(sibling)
                current.add(prefix.parent())
                merged = True
    return sorted(current)


def covers_same_addresses(left: Sequence[Prefix], right: Sequence[Prefix]) -> bool:
    """Return True when two prefix sets cover exactly the same addresses.

    Used by tests and by the migration optimizer's self-checks.  Runs in
    O(n log n) by comparing the merged interval lists of both sets.
    """
    return _interval_union(left) == _interval_union(right)


def _interval_union(prefixes: Sequence[Prefix]) -> List[Tuple[int, int]]:
    intervals = sorted((p.first_address, p.last_address) for p in prefixes)
    union: List[Tuple[int, int]] = []
    for start, end in intervals:
        if union and start <= union[-1][1] + 1:
            union[-1] = (union[-1][0], max(union[-1][1], end))
        else:
            union.append((start, end))
    return union
