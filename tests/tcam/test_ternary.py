"""Unit and property tests for ternary match algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcam.prefix import MAX_PREFIX_LEN, Prefix
from repro.tcam.ternary import TernaryMatch


def T(text):
    return TernaryMatch.from_string(text)


@st.composite
def ternary_matches(draw, width=8):
    mask = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1)) & mask
    return TernaryMatch(value, mask, width)


def walk_to_prefix(match):
    """The bit-by-bit reference for ``TernaryMatch.to_prefix``: count the
    leading care bits, then require the mask to be exactly that run."""
    if match.width != MAX_PREFIX_LEN:
        return None
    length = 0
    for position in range(match.width - 1, -1, -1):
        if match.mask & (1 << position):
            length += 1
        else:
            break
    if match.mask != (((1 << length) - 1) << (match.width - length) if length else 0):
        return None
    return Prefix(match.value, length)


@st.composite
def prefix_candidate_matches(draw):
    """Matches of any width whose masks are prefix-shaped, one bit off a
    prefix, or arbitrary."""
    width = draw(st.sampled_from([MAX_PREFIX_LEN, MAX_PREFIX_LEN, 8, 31, 33, 64]))
    length = draw(st.integers(min_value=0, max_value=width))
    prefix_mask = ((1 << length) - 1) << (width - length)
    shape = draw(st.sampled_from(["prefix", "flipped", "arbitrary"]))
    if shape == "prefix":
        mask = prefix_mask
    elif shape == "flipped":
        mask = prefix_mask ^ (1 << draw(st.integers(min_value=0, max_value=width - 1)))
    else:
        mask = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1)) & mask
    return TernaryMatch(value, mask, width)


def keys_of(match):
    """Enumerate every concrete key a (small-width) match covers."""
    return {key for key in range(1 << match.width) if match.matches(key)}


class TestConstruction:
    def test_bit_pattern_parsing(self):
        m = T("10*1")
        assert m.width == 4
        assert m.matches(0b1011) and m.matches(0b1001)
        assert not m.matches(0b1010)

    def test_prefix_string_parsing(self):
        m = T("10.0.0.0/8")
        assert m.width == 32
        assert m.matches(Prefix.from_string("10.9.8.7").network)

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            TernaryMatch(value=0b10, mask=0b01, width=2)

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            TernaryMatch(value=0, mask=1 << 8, width=8)

    def test_wildcard_matches_everything(self):
        w = TernaryMatch.wildcard(width=6)
        assert len(keys_of(w)) == 64

    def test_str_roundtrip_bits(self):
        assert str(T("1*01")) == "1*01"

    def test_str_prefix_form(self):
        assert str(T("10.0.0.0/8")) == "10.0.0.0/8"


class TestPredicates:
    def test_size_counts_wildcards(self):
        assert T("1**0").size == 4

    def test_overlap_symmetric(self):
        a, b = T("10**"), T("1*1*")
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint(self):
        assert not T("00**").overlaps(T("11**"))

    def test_contains(self):
        assert T("1***").contains(T("10*1"))
        assert not T("10*1").contains(T("1***"))

    def test_contains_implies_overlaps(self):
        assert T("1***").overlaps(T("10*1"))

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            T("1*").overlaps(T("1**"))


class TestSetOperations:
    def test_intersect_exact(self):
        a, b = T("10**"), T("1*1*")
        inter = a.intersect(b)
        assert keys_of(inter) == keys_of(a) & keys_of(b)

    def test_intersect_disjoint_is_none(self):
        assert T("0***").intersect(T("1***")) is None

    def test_subtract_exact_complement(self):
        a, b = T("10**"), T("1*1*")
        fragments = a.subtract(b)
        covered = set()
        for fragment in fragments:
            fragment_keys = keys_of(fragment)
            assert not fragment_keys & keys_of(b), "fragment overlaps the hole"
            assert not fragment_keys & covered, "fragments overlap each other"
            covered |= fragment_keys
        assert covered == keys_of(a) - keys_of(b)

    def test_subtract_disjoint_returns_self(self):
        a = T("0***")
        assert a.subtract(T("1***")) == [a]

    def test_subtract_containing_is_empty(self):
        assert T("10*1").subtract(T("1***")) == []

    @given(ternary_matches(), ternary_matches())
    def test_subtract_property(self, a, b):
        fragments = a.subtract(b)
        covered = set()
        for fragment in fragments:
            fragment_keys = keys_of(fragment)
            assert not fragment_keys & keys_of(b)
            assert not fragment_keys & covered
            covered |= fragment_keys
        assert covered == keys_of(a) - keys_of(b)

    @given(ternary_matches(), ternary_matches())
    def test_intersect_property(self, a, b):
        inter = a.intersect(b)
        expected = keys_of(a) & keys_of(b)
        if inter is None:
            assert not expected
        else:
            assert keys_of(inter) == expected

    @given(ternary_matches(), ternary_matches())
    def test_overlap_agrees_with_enumeration(self, a, b):
        assert a.overlaps(b) == bool(keys_of(a) & keys_of(b))

    @given(ternary_matches(), ternary_matches())
    def test_contains_agrees_with_enumeration(self, a, b):
        assert a.contains(b) == (keys_of(b) <= keys_of(a))


class TestPrefixConversion:
    def test_prefix_roundtrip(self):
        p = Prefix.from_string("172.16.0.0/12")
        assert TernaryMatch.from_prefix(p).to_prefix() == p

    def test_non_prefix_shape(self):
        assert T("1*0*").to_prefix() is None
        assert not T("1*0*").is_prefix

    def test_wildcard_is_default_route(self):
        assert TernaryMatch.wildcard().to_prefix() == Prefix.default_route()

    @settings(max_examples=500)
    @given(prefix_candidate_matches())
    def test_to_prefix_matches_the_bit_walk(self, match):
        assert match.to_prefix() == walk_to_prefix(match)
