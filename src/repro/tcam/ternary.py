"""General ternary (value/mask) matches.

A TCAM entry matches on a *ternary* key: every bit is 0, 1, or don't-care.
IPv4 prefixes are the special case where the care bits are a contiguous
high-order run.  Hermes's partitioner (Algorithm 1) is defined over arbitrary
ternary rules; this module supplies overlap detection, containment,
intersection, and subtraction for them, mirroring the ACL-optimization
primitives the paper borrows from EffiCuts [59].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .prefix import MAX_PREFIX_LEN, Prefix


@dataclass(frozen=True, order=True)
class TernaryMatch:
    """A ternary match over a ``width``-bit key.

    Attributes:
        value: the cared-for bit values; bits outside ``mask`` must be zero.
        mask: set bits are *care* bits; clear bits are wildcards.
        width: key width in bits (32 for plain IPv4 destination matches).
    """

    value: int
    mask: int
    width: int = MAX_PREFIX_LEN

    def __post_init__(self) -> None:
        limit = 1 << self.width
        if not 0 <= self.mask < limit:
            raise ValueError(f"mask {self.mask:#x} does not fit in {self.width} bits")
        if not 0 <= self.value < limit:
            raise ValueError(f"value {self.value:#x} does not fit in {self.width} bits")
        if self.value & ~self.mask:
            raise ValueError("value has bits set outside the mask")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def wildcard(cls, width: int = MAX_PREFIX_LEN) -> "TernaryMatch":
        """Return the match-everything entry (all bits don't-care)."""
        return cls(0, 0, width)

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "TernaryMatch":
        """Convert an IPv4 prefix to its ternary equivalent."""
        return cls(prefix.network, prefix.mask, MAX_PREFIX_LEN)

    @classmethod
    def from_string(cls, text: str) -> "TernaryMatch":
        """Parse either a prefix string (``"10.0.0.0/8"``) or a bit pattern.

        Bit patterns use ``0``, ``1``, and ``*``, most-significant bit first,
        e.g. ``"10**"`` is a 4-bit match for keys 0b1000..0b1011.
        """
        if set(text) <= {"0", "1", "*"} and len(text) > 0 and "." not in text:
            width = len(text)
            value = 0
            mask = 0
            for char in text:
                value <<= 1
                mask <<= 1
                if char == "1":
                    value |= 1
                    mask |= 1
                elif char == "0":
                    mask |= 1
            return cls(value, mask, width)
        return cls.from_prefix(Prefix.from_string(text))

    def __str__(self) -> str:
        prefix = self.to_prefix()
        if prefix is not None:
            return str(prefix)
        bits = []
        for position in range(self.width - 1, -1, -1):
            bit = 1 << position
            if not self.mask & bit:
                bits.append("*")
            else:
                bits.append("1" if self.value & bit else "0")
        return "".join(bits)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def care_bits(self) -> int:
        """The number of non-wildcard bits."""
        return bin(self.mask).count("1")

    @property
    def size(self) -> int:
        """The number of concrete keys this match covers."""
        return 1 << (self.width - self.care_bits)

    def matches(self, key: int) -> bool:
        """Return True when the concrete ``key`` matches this entry."""
        return (key & self.mask) == self.value

    def overlaps(self, other: "TernaryMatch") -> bool:
        """Return True when some concrete key matches both entries.

        Two ternary matches overlap iff they agree on every bit both care
        about: ``(v1 ^ v2) & m1 & m2 == 0``.
        """
        self._check_width(other)
        return (self.value ^ other.value) & self.mask & other.mask == 0

    def contains(self, other: "TernaryMatch") -> bool:
        """Return True when every key matched by ``other`` matches ``self``."""
        self._check_width(other)
        if self.mask & ~other.mask:
            return False  # self cares about a bit other wildcards
        return (self.value ^ other.value) & self.mask == 0

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "TernaryMatch") -> Optional["TernaryMatch"]:
        """Return the match covering exactly the keys matched by both.

        The intersection of two overlapping ternary matches is itself a
        ternary match (the union of care bits); returns None when disjoint.
        """
        if not self.overlaps(other):
            return None
        mask = self.mask | other.mask
        value = (self.value & self.mask) | (other.value & other.mask)
        return TernaryMatch(value, mask, self.width)

    def subtract(self, other: "TernaryMatch") -> List["TernaryMatch"]:
        """Return matches covering exactly ``self`` minus ``other``.

        This generalizes prefix cutting: for each care bit of the
        intersection that ``self`` wildcards, emit one fragment that agrees
        with the overlap on all previously-processed bits and *disagrees* on
        this one.  The fragments are pairwise disjoint and their union with
        ``self ∩ other`` is ``self``.
        """
        overlap = self.intersect(other)
        if overlap is None:
            return [self]
        if other.contains(self):
            return []
        fragments: List[TernaryMatch] = []
        fixed_mask = self.mask
        fixed_value = self.value
        for position in range(self.width - 1, -1, -1):
            bit = 1 << position
            if overlap.mask & bit and not self.mask & bit:
                # Fragment: agree with the overlap on the bits fixed so far,
                # flip this bit relative to the overlap's value.
                fragment_mask = fixed_mask | bit
                fragment_value = (fixed_value & fixed_mask) | (
                    (overlap.value ^ bit) & bit
                )
                fragments.append(TernaryMatch(fragment_value, fragment_mask, self.width))
                # Then constrain future fragments to match the overlap here.
                fixed_mask |= bit
                fixed_value = (fixed_value & ~bit) | (overlap.value & bit)
        return fragments

    def to_prefix(self) -> Optional[Prefix]:
        """Return the equivalent :class:`Prefix`, or None if not prefix-shaped."""
        if self.width != MAX_PREFIX_LEN:
            return None
        # Prefix-shaped iff the wildcard bits are a low-order run, that is,
        # iff the wildcard bits plus one are a power of two.
        wildcards = ~self.mask & ((1 << MAX_PREFIX_LEN) - 1)
        if wildcards & (wildcards + 1):
            return None
        return Prefix(self.value, MAX_PREFIX_LEN - wildcards.bit_length())

    @property
    def is_prefix(self) -> bool:
        """Return True when the care bits form a contiguous high-order run."""
        return self.to_prefix() is not None

    def _check_width(self, other: "TernaryMatch") -> None:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )
