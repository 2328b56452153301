"""Tests for the induced order <_T (Definition 4.2; E09).

Three implementations of the order must agree everywhere:
the direct comparator, the sort keys and the arithmetic ranks.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.domains import domain_cardinality, materialize_domain
from repro.objects.ordering import (
    AtomOrder,
    OrderError,
    all_atom_orders,
    compare,
    less_than,
    maximum,
    minimum,
    ordered_domain,
    rank,
    sort_key,
    sorted_values,
    successor,
    tuple_rank,
    tuple_unrank,
    unrank,
)
from repro.objects.types import U, parse_type
from repro.objects.values import Atom, cset, ctuple, atom

from .conftest import values_of_type

ORDER3 = AtomOrder.from_labels("abc")
SMALL_TYPES = ["U", "{U}", "[U,U]", "[U,{U}]", "{[U,U]}", "{{U}}"]


class TestAtomOrder:
    def test_index(self):
        assert ORDER3.index(Atom("a")) == 0
        assert ORDER3.index(Atom("c")) == 2

    def test_unknown_atom(self):
        with pytest.raises(OrderError):
            ORDER3.index(Atom("z"))

    def test_duplicates_rejected(self):
        with pytest.raises(OrderError, match=r"duplicate atom Atom\('a'\)"):
            AtomOrder.from_labels("aba")

    def test_sorted_by_label(self):
        order = AtomOrder.sorted_by_label([Atom("c"), Atom("a"), Atom("b")])
        assert [a.label for a in order] == ["a", "b", "c"]

    def test_sorted_by_label_mixed_types(self):
        """Int labels sort before str labels, each by their text."""
        order = AtomOrder.sorted_by_label(
            [Atom("b"), Atom(10), Atom("a"), Atom(9)])
        assert [a.label for a in order] == [10, 9, "a", "b"]

    def test_all_atom_orders_count(self):
        orders = list(all_atom_orders([Atom(ch) for ch in "abc"]))
        assert len(orders) == 6
        assert len(set(orders)) == 6


class TestDefinition42:
    """Hand-checked cases straight from Definition 4.2."""

    def test_tuple_lexicographic(self):
        t1 = ctuple(atom("a"), atom("c"))
        t2 = ctuple(atom("b"), atom("a"))
        assert compare(t1, t2, ORDER3) < 0  # first component decides

    def test_tuple_tie_breaks_right(self):
        t1 = ctuple(atom("a"), atom("b"))
        t2 = ctuple(atom("a"), atom("c"))
        assert compare(t1, t2, ORDER3) < 0

    def test_set_max_difference(self):
        # {a,c} vs {b}: max({a,c}-{b}) = c > max({b}-{a,c}) = b  =>  {b} < {a,c}
        s1 = cset(atom("a"), atom("c"))
        s2 = cset(atom("b"))
        assert compare(s2, s1, ORDER3) < 0

    def test_subset_is_smaller(self):
        # x - y empty => x <= y; {c} < {a,c}
        assert less_than(cset(atom("c")), cset(atom("a"), atom("c")), ORDER3)

    def test_empty_set_is_minimum(self):
        typ = parse_type("{U}")
        assert minimum(typ, ORDER3) == cset()
        for value in materialize_domain(typ, ORDER3.atoms):
            if value != cset():
                assert less_than(cset(), value, ORDER3)

    def test_full_set_is_maximum(self):
        typ = parse_type("{U}")
        assert maximum(typ, ORDER3) == cset(atom("a"), atom("b"), atom("c"))

    def test_known_order_of_subsets(self):
        """The characteristic-number order on subsets of {a,b,c}."""
        typ = parse_type("{U}")
        expected = ["{}", "{a}", "{b}", "{a, b}", "{c}", "{a, c}",
                    "{b, c}", "{a, b, c}"]
        actual = [str(v) for v in ordered_domain(typ, ORDER3)]
        assert actual == expected


class TestThreeImplementationsAgree:
    @pytest.mark.parametrize("text", SMALL_TYPES)
    def test_comparator_vs_sort_key(self, text):
        typ = parse_type(text)
        order = AtomOrder.from_labels("ab")
        values = materialize_domain(typ, order.atoms)
        for v1, v2 in itertools.product(values, repeat=2):
            by_compare = compare(v1, v2, order)
            k1, k2 = sort_key(v1, order), sort_key(v2, order)
            by_key = (k1 > k2) - (k1 < k2)
            assert by_compare == by_key, (v1, v2)

    @pytest.mark.parametrize("text", SMALL_TYPES)
    def test_comparator_vs_rank(self, text):
        typ = parse_type(text)
        order = AtomOrder.from_labels("ab")
        values = materialize_domain(typ, order.atoms)
        for v1, v2 in itertools.product(values, repeat=2):
            by_compare = compare(v1, v2, order)
            r1, r2 = rank(v1, typ, order), rank(v2, typ, order)
            assert by_compare == (r1 > r2) - (r1 < r2), (v1, v2)

    @pytest.mark.parametrize("text", SMALL_TYPES)
    def test_rank_unrank_roundtrip(self, text):
        typ = parse_type(text)
        total = domain_cardinality(typ, len(ORDER3))
        for position in range(min(total, 200)):
            value = unrank(position, typ, ORDER3)
            assert rank(value, typ, ORDER3) == position

    def test_rank_out_of_range(self):
        with pytest.raises(OrderError):
            unrank(8, parse_type("{U}"), ORDER3.atoms and ORDER3)
            # |dom({U})| = 8 over 3 atoms; rank 8 is out of range
        with pytest.raises(OrderError):
            unrank(-1, parse_type("U"), ORDER3)


class TestSuccessor:
    def test_chain_covers_domain(self):
        typ = parse_type("{U}")
        current = minimum(typ, ORDER3)
        seen = [current]
        while (nxt := successor(current, typ, ORDER3)) is not None:
            assert less_than(current, nxt, ORDER3)
            seen.append(nxt)
            current = nxt
        assert len(seen) == domain_cardinality(typ, 3)

    def test_maximum_has_no_successor(self):
        typ = parse_type("[U,U]")
        assert successor(maximum(typ, ORDER3), typ, ORDER3) is None


class TestTupleRanks:
    def test_roundtrip(self):
        types = [U, parse_type("{U}")]
        total = 3 * 8
        for position in range(total):
            values = tuple_unrank(position, types, ORDER3)
            assert tuple_rank(values, types, ORDER3) == position

    def test_lexicographic(self):
        types = [U, U]
        previous = None
        for position in range(9):
            values = tuple_unrank(position, types, ORDER3)
            if previous is not None:
                # first component non-decreasing; strictly increasing overall
                assert ORDER3.index(values[0]) >= ORDER3.index(previous[0])
            previous = values


class TestSortedValues:
    @given(st.frozensets(values_of_type(parse_type("{U}"), "abc"),
                         min_size=2, max_size=8))
    @settings(max_examples=50)
    def test_sorted_is_strictly_increasing(self, values):
        ordered = sorted_values(values, ORDER3)
        for left, right in zip(ordered, ordered[1:]):
            assert less_than(left, right, ORDER3)

    def test_order_depends_on_enumeration(self):
        """Different <_U enumerations induce different <_T (genericity of
        the final simulation results is established separately)."""
        s_a, s_b = cset(atom("a")), cset(atom("b"))
        order_ab = AtomOrder.from_labels("ab")
        order_ba = AtomOrder.from_labels("ba")
        assert less_than(s_a, s_b, order_ab)
        assert less_than(s_b, s_a, order_ba)
