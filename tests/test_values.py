"""Tests for complex object values (Section 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.objects.types import parse_type
from repro.objects.values import (
    Atom,
    CSet,
    CTuple,
    ValueError_,
    atom,
    cset,
    ctuple,
    make_value,
    value_sort_key,
)

from .conftest import small_types, values_of_type


class TestAtoms:
    def test_label_identity(self):
        assert Atom("a") == Atom("a")
        assert Atom("a") != Atom("b")
        assert Atom(1) != Atom("1")

    def test_bad_labels(self):
        with pytest.raises(ValueError_):
            Atom(True)  # bools are not labels
        with pytest.raises(ValueError_):
            Atom(3.14)  # type: ignore[arg-type]

    def test_atoms_of_atom(self):
        assert atom("a").atoms() == frozenset({Atom("a")})

    def test_infer_type(self):
        assert atom("a").infer_type() == parse_type("U")


class TestTuples:
    def test_components_one_indexed(self):
        t = ctuple(atom("a"), atom("b"))
        assert t.component(1) == atom("a")
        assert t.component(2) == atom("b")
        with pytest.raises(ValueError_):
            t.component(0)
        with pytest.raises(ValueError_):
            t.component(3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError_):
            CTuple(())

    def test_atoms_recursive(self):
        t = ctuple(atom("a"), cset(atom("b"), atom("c")))
        assert t.atoms() == frozenset({Atom("a"), Atom("b"), Atom("c")})

    def test_infer_type(self):
        t = ctuple(atom("a"), cset(atom("b")))
        assert t.infer_type() == parse_type("[U,{U}]")


class TestSets:
    def test_deduplication(self):
        s = CSet([atom("a"), atom("a"), atom("b")])
        assert len(s) == 2

    def test_empty_set_conforms_to_any_set_type(self):
        empty = cset()
        assert empty.conforms_to(parse_type("{U}"))
        assert empty.conforms_to(parse_type("{{U}}"))
        assert empty.conforms_to(parse_type("{[U,U]}"))
        assert not empty.conforms_to(parse_type("U"))

    def test_empty_set_infers_minimal_type(self):
        assert cset().infer_type() == parse_type("{U}")

    def test_heterogeneous_set_rejected_at_inference(self):
        s = CSet([atom("a"), cset(atom("b"))])
        with pytest.raises(ValueError_):
            s.infer_type()

    def test_nested_sets_are_hashable(self):
        """The awkward bit the repro band flags: sets of sets of sets."""
        inner = cset(atom("a"))
        middle = cset(inner, cset(atom("b")))
        outer = cset(middle)
        assert outer in {outer}
        assert middle in outer

    def test_set_algebra(self):
        s1 = cset(atom("a"), atom("b"))
        s2 = cset(atom("b"), atom("c"))
        assert s1.union(s2) == cset(atom("a"), atom("b"), atom("c"))
        assert s1.intersection(s2) == cset(atom("b"))
        assert s1.difference(s2) == cset(atom("a"))
        assert cset(atom("b")).issubset(s1)
        assert not s1.issubset(s2)


class TestMakeValue:
    def test_plain_python_conversion(self):
        v = make_value(("a", {"b", "c"}))
        assert v == ctuple(atom("a"), cset(atom("b"), atom("c")))

    def test_nested(self):
        v = make_value({("a", frozenset({"b"}))})
        assert v.infer_type() == parse_type("{[U,{U}]}")

    def test_passthrough(self):
        v = cset(atom("a"))
        assert make_value(v) is v

    def test_ints(self):
        assert make_value(7) == Atom(7)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError_):
            make_value(3.5)
        with pytest.raises(ValueError_):
            make_value(None)


class TestSubobjects:
    def test_subobjects_preorder(self):
        v = make_value(("a", {"b"}))
        subs = list(v.subobjects())
        assert subs[0] == v
        assert atom("a") in subs
        assert cset(atom("b")) in subs
        assert atom("b") in subs


class TestProperties:
    @given(small_types().flatmap(values_of_type))
    def test_infer_type_conforms(self, value):
        try:
            inferred = value.infer_type()
        except ValueError_:
            return  # heterogeneous empty-set corner; skip
        assert value.conforms_to(inferred)

    @given(small_types().flatmap(values_of_type))
    def test_hash_consistency(self, value):
        assert hash(value) == hash(value)
        assert value == value
        assert value in {value}

    @given(small_types().flatmap(values_of_type))
    def test_sort_key_total(self, value):
        key = value_sort_key(value)
        assert isinstance(key, tuple)

    @given(st.data())
    def test_structural_equality_via_reconstruction(self, data):
        typ = data.draw(small_types())
        value = data.draw(values_of_type(typ))
        rebuilt = _rebuild(value)
        assert rebuilt == value
        assert hash(rebuilt) == hash(value)


def _rebuild(value):
    if isinstance(value, Atom):
        return Atom(value.label)
    if isinstance(value, CTuple):
        return CTuple(_rebuild(item) for item in value.items)
    if isinstance(value, CSet):
        return CSet(_rebuild(element) for element in value.elements)
    raise AssertionError


class TestAtomCollection:
    @given(small_types().flatmap(values_of_type))
    def test_atoms_are_the_atom_subobjects(self, value):
        """``atoms()`` of a tuple or set (gathered into one set) is
        exactly its ``Atom`` subobjects."""
        expected = {sub for sub in value.subobjects() if isinstance(sub, Atom)}
        assert value.atoms() == expected
