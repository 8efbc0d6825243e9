"""Unit and property tests for IPv4 prefix algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcam.prefix import (
    MAX_PREFIX_LEN,
    Prefix,
    covers_same_addresses,
    merge_prefixes,
)


def P(text):
    return Prefix.from_string(text)


@st.composite
def prefixes(draw, max_length=MAX_PREFIX_LEN):
    length = draw(st.integers(min_value=0, max_value=max_length))
    network = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return Prefix(network & mask, length)


class TestConstruction:
    def test_from_string_roundtrip(self):
        assert str(P("192.168.1.0/24")) == "192.168.1.0/24"

    def test_bare_address_is_host_prefix(self):
        assert P("10.0.0.1").length == 32

    def test_default_route(self):
        assert Prefix.default_route() == P("0.0.0.0/0")

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(P("10.0.0.1").network, 8)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_bad_octet_rejected(self):
        with pytest.raises(ValueError):
            P("300.0.0.0/8")

    def test_malformed_address_rejected(self):
        with pytest.raises(ValueError):
            P("10.0.0/8")


class TestRelations:
    def test_contains_child(self):
        assert P("10.0.0.0/8").contains(P("10.1.0.0/16"))

    def test_contains_is_reflexive(self):
        assert P("10.0.0.0/8").contains(P("10.0.0.0/8"))

    def test_child_does_not_contain_parent(self):
        assert not P("10.1.0.0/16").contains(P("10.0.0.0/8"))

    def test_disjoint_prefixes_do_not_overlap(self):
        assert not P("10.0.0.0/8").overlaps(P("11.0.0.0/8"))

    def test_overlap_is_containment_for_prefixes(self):
        assert P("10.0.0.0/8").overlaps(P("10.2.3.0/24"))

    def test_matches_addresses_inside(self):
        p = P("192.168.1.0/24")
        assert p.matches(P("192.168.1.77").network)
        assert not p.matches(P("192.168.2.1").network)

    def test_size(self):
        assert P("10.0.0.0/30").size == 4
        assert Prefix.default_route().size == 1 << 32

    def test_first_last_address(self):
        p = P("10.0.0.0/30")
        assert p.last_address - p.first_address == 3


class TestStructure:
    def test_split_children_partition_parent(self):
        parent = P("10.0.0.0/8")
        left, right = parent.split()
        assert left.size + right.size == parent.size
        assert parent.contains(left) and parent.contains(right)
        assert not left.overlaps(right)

    def test_split_host_prefix_fails(self):
        with pytest.raises(ValueError):
            P("1.2.3.4/32").split()

    def test_parent_of_child(self):
        assert P("10.128.0.0/9").parent() == P("10.0.0.0/8")

    def test_default_route_has_no_parent_or_sibling(self):
        with pytest.raises(ValueError):
            Prefix.default_route().parent()
        with pytest.raises(ValueError):
            Prefix.default_route().sibling()

    def test_siblings(self):
        left, right = P("10.0.0.0/8").split()
        assert left.sibling() == right
        assert right.sibling() == left


class TestSubtract:
    def test_subtract_contained(self):
        result = P("192.168.1.0/24").subtract(P("192.168.1.0/26"))
        assert sorted(map(str, result)) == ["192.168.1.128/25", "192.168.1.64/26"]

    def test_subtract_disjoint_returns_self(self):
        p = P("10.0.0.0/8")
        assert p.subtract(P("11.0.0.0/8")) == [p]

    def test_subtract_containing_returns_empty(self):
        assert P("10.1.0.0/16").subtract(P("10.0.0.0/8")) == []

    def test_subtract_self_returns_empty(self):
        p = P("10.0.0.0/8")
        assert p.subtract(p) == []

    @given(prefixes(max_length=24), st.data())
    def test_subtract_covers_exact_complement(self, parent, data):
        extra = data.draw(st.integers(min_value=0, max_value=32 - parent.length))
        child_length = parent.length + extra
        offset = data.draw(
            st.integers(min_value=0, max_value=(1 << (child_length - parent.length)) - 1)
        )
        child = Prefix(
            parent.network | (offset << (32 - child_length)), child_length
        )
        remainder = parent.subtract(child)
        # Fragments are disjoint from the hole and from each other.
        for fragment in remainder:
            assert not fragment.overlaps(child)
        assert covers_same_addresses(remainder + [child], [parent])


class TestMerge:
    def test_merge_siblings_into_parent(self):
        left, right = P("10.0.0.0/8").split()
        assert merge_prefixes([left, right]) == [P("10.0.0.0/8")]

    def test_merge_removes_contained(self):
        assert merge_prefixes([P("10.0.0.0/8"), P("10.1.0.0/16")]) == [P("10.0.0.0/8")]

    def test_merge_is_idempotent_on_disjoint(self):
        prefixes = [P("10.0.0.0/8"), P("11.0.0.0/8"), P("192.168.0.0/16")]
        # 10/8 and 11/8 are siblings and coalesce into 10.0.0.0/7.
        assert merge_prefixes(prefixes) == [P("10.0.0.0/7"), P("192.168.0.0/16")]

    def test_merge_empty(self):
        assert merge_prefixes([]) == []

    def test_merge_cascades_to_fixpoint(self):
        quarters = [
            P("10.0.0.0/10"),
            P("10.64.0.0/10"),
            P("10.128.0.0/10"),
            P("10.192.0.0/10"),
        ]
        assert merge_prefixes(quarters) == [P("10.0.0.0/8")]

    @given(st.lists(prefixes(), max_size=12))
    def test_merge_preserves_coverage(self, prefix_list):
        merged = merge_prefixes(prefix_list)
        assert covers_same_addresses(merged, prefix_list)

    @given(st.lists(prefixes(), max_size=12))
    def test_merge_never_grows(self, prefix_list):
        assert len(merge_prefixes(prefix_list)) <= max(1, len(set(prefix_list)))

    @given(st.lists(prefixes(), max_size=12))
    def test_merge_result_is_canonical_minimal(self, prefix_list):
        """The result has no containment and no sibling pair — the unique
        minimal prefix representation of the covered address set."""
        merged = merge_prefixes(prefix_list)
        as_set = set(merged)
        for prefix in merged:
            assert not any(
                other != prefix and other.contains(prefix) for other in merged
            )
            if prefix.length > 0:
                assert prefix.sibling() not in as_set

    @given(st.lists(prefixes(), max_size=12))
    def test_merge_is_idempotent(self, prefix_list):
        once = merge_prefixes(prefix_list)
        assert merge_prefixes(once) == once
