"""The interning layer: round-trip, injectivity, order compatibility.

Three properties pin :mod:`repro.objects.intern`:

* intern → unintern is the identity over random nested values;
* interning is injective — equal ids iff structurally equal values —
  and id-level set membership mirrors the object structure;
* on a fixed instance, :meth:`ValueStore.from_instance` assigns ids
  compatible with the induced order ``<_T`` of Definition 4.2 within
  each declared-type group (atoms get exactly their AtomOrder ranks),
  and the assignment is stable across JSON re-parses.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import small_types, supply_chain_instances, values_of_type
from repro.objects import (
    Atom,
    AtomOrder,
    ColumnTable,
    CSet,
    CTuple,
    InternError,
    OrderError,
    ValueStore,
    database_schema,
    instance,
    instance_from_json,
    instance_to_json,
    intern_instance,
    less_than,
    parse_type,
    type_depth,
)


def nested_values():
    return small_types().flatmap(values_of_type)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(value=nested_values())
    def test_intern_unintern_identity(self, value):
        store = ValueStore()
        vid = store.intern(value)
        assert store.value(vid) == value

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(nested_values(), min_size=1, max_size=6))
    def test_row_round_trip(self, values):
        store = ValueStore()
        ids = store.intern_row(values)
        assert store.unintern_row(ids) == tuple(values)


class TestInjectivity:
    @settings(max_examples=150, deadline=None)
    @given(left=nested_values(), right=nested_values())
    def test_equal_ids_iff_equal_values(self, left, right):
        store = ValueStore()
        assert (store.intern(left) == store.intern(right)) == (left == right)

    @settings(max_examples=100, deadline=None)
    @given(value=nested_values())
    def test_idempotent(self, value):
        store = ValueStore()
        assert store.intern(value) == store.intern(value)
        assert value in store

    @settings(max_examples=100, deadline=None)
    @given(value=nested_values())
    def test_id_structure_mirrors_value_structure(self, value):
        store = ValueStore()
        vid = store.intern(value)
        members = store.set_members(vid)
        if isinstance(value, CSet):
            assert members is not None
            assert frozenset(store.value(m) for m in members) == value.elements
        else:
            assert members is None

    def test_unknown_ids_rejected(self):
        store = ValueStore()
        with pytest.raises(InternError):
            store.value(0)
        with pytest.raises(InternError):
            store.intern("not a value")

    @pytest.mark.parametrize("method", ["value", "set_members"])
    @pytest.mark.parametrize("vid", [-1, 4, 99, "0", None])
    def test_id_accessors_bounds_checked(self, method, vid):
        """Negative ids must not index from the end, and ids past the
        end must not leak a bare IndexError."""
        store = ValueStore()
        store.intern(CTuple([Atom("a"), CSet([Atom("b")])]))
        assert len(store) == 4
        with pytest.raises(InternError):
            getattr(store, method)(vid)


NESTED_SCHEMA = database_schema(P=["U", "{U}", "[U,{U}]"])

NESTED_INSTANCE = instance(
    NESTED_SCHEMA,
    P=[("b", {"a", "b"}, ("c", {"a", "c"})),
       ("c", {"c"}, ("a", {"b", "c"})),
       ("a", set(), ("b", {"a"}))],
)


class TestOrderCompatibility:
    def test_atom_ids_are_atom_order_ranks(self):
        store = ValueStore.from_instance(NESTED_INSTANCE)
        order = AtomOrder.sorted_by_label(NESTED_INSTANCE.atoms())
        for rank_, atom_ in enumerate(order.atoms):
            assert store.intern(atom_) == rank_

    def test_ids_follow_induced_order_within_declared_type(self):
        """Within each declared-type group of the fixed instance, id
        order equals the induced order ``<_T`` (module-docstring
        guarantee of ``intern.py``)."""
        store = ValueStore.from_instance(NESTED_INSTANCE)
        order = AtomOrder.sorted_by_label(NESTED_INSTANCE.atoms())
        by_type = {
            parse_type("U"): [row.component(1)
                              for row in NESTED_INSTANCE.relation("P")],
            parse_type("{U}"): [row.component(2)
                                for row in NESTED_INSTANCE.relation("P")],
            parse_type("[U,{U}]"): [row.component(3)
                                    for row in NESTED_INSTANCE.relation("P")],
        }
        for typ, values in by_type.items():
            distinct = set(values)
            for left in distinct:
                for right in distinct:
                    if less_than(left, right, order):
                        assert store.intern(left) < store.intern(right), \
                            (typ, left, right)

    def test_subobjects_precede_their_containers(self):
        store = ValueStore.from_instance(NESTED_INSTANCE)
        for row in NESTED_INSTANCE.relation("P"):
            for value in row.items:
                vid = store.intern(value)
                for sub in value.subobjects():
                    assert store.intern(sub) <= vid

    def test_ids_stable_across_reparse(self):
        reparsed = instance_from_json(
            json.loads(json.dumps(instance_to_json(NESTED_INSTANCE))))
        first = ValueStore.from_instance(NESTED_INSTANCE)
        second = ValueStore.from_instance(reparsed)
        for row in NESTED_INSTANCE.relation("P"):
            for value in row.items:
                assert first.intern(value) == second.intern(value)

    def test_type_depth(self):
        assert type_depth(parse_type("U")) == 1
        assert type_depth(parse_type("{U}")) == 2
        assert type_depth(parse_type("[U,{U}]")) == 3
        assert type_depth(parse_type("{[U,{{U}}]}")) == 5


class TestColumnTable:
    def test_round_trip_and_layout(self):
        store, tables = intern_instance(NESTED_INSTANCE)
        table = tables["P"]
        assert isinstance(table, ColumnTable)
        assert table.arity == 3
        assert len(table) == 3
        decoded = {store.unintern_row(row) for row in table}
        assert decoded == {tuple(row.items)
                           for row in NESTED_INSTANCE.relation("P")}
        assert table.to_frozenset() == {table.row(i)
                                        for i in range(len(table))}

    def test_rows_sorted_for_determinism(self):
        _, tables = intern_instance(NESTED_INSTANCE)
        rows = list(tables["P"])
        assert rows == sorted(rows)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InternError):
            ColumnTable([(1, 2), (3,)])

    def test_heterogeneous_conformant_sets_intern(self):
        """Declared-type collection must not trip over sets whose
        elements only share the declared element type (infer_type would
        reject them)."""
        schema = database_schema(R=["{{{U}}}"])
        empty = CSet([])
        nested = CSet([CSet([Atom("a")])])
        inst = instance(schema, R=[(CSet([empty, nested]),)])
        store, _ = intern_instance(inst)
        assert store.value(store.intern(CSet([empty, nested]))) \
            == CSet([empty, nested])


class TestSinglePassInterning:
    """``from_instance`` takes atom(I) from its own traversal, and
    ``intern_instance`` maps rows with the ids it assigned; both must
    agree exactly with the explicit two-pass route."""

    @settings(max_examples=50, deadline=None)
    @given(inst=supply_chain_instances())
    def test_relation_and_instance_atoms(self, inst):
        everywhere = set()
        for rel in inst.relations():
            subatoms = {sub for row in rel.tuples for sub in row.subobjects()
                        if isinstance(sub, Atom)}
            assert rel.atoms() == subatoms
            everywhere |= subatoms
        assert inst.atoms() == everywhere

    @settings(max_examples=50, deadline=None)
    @given(inst=supply_chain_instances())
    def test_default_order_matches_explicit_order(self, inst):
        single = ValueStore.from_instance(inst)
        explicit = ValueStore.from_instance(
            inst, AtomOrder.sorted_by_label(inst.atoms()))
        assert len(single) == len(explicit)
        for rel in inst.relations():
            for row in rel.tuples:
                for sub in row.subobjects():
                    if sub is not row:
                        assert single.intern(sub) == explicit.intern(sub)
        assert len(single) == len(explicit)  # nothing new was interned

    @settings(max_examples=50, deadline=None)
    @given(inst=supply_chain_instances())
    def test_tables_match_value_by_value_interning(self, inst):
        store, tables = intern_instance(inst)
        _, by_value = intern_instance(inst, store=ValueStore.from_instance(inst))
        assert {name: list(t) for name, t in tables.items()} \
            == {name: list(t) for name, t in by_value.items()}

    def test_order_must_cover_the_atoms(self):
        with pytest.raises(OrderError):
            ValueStore.from_instance(NESTED_INSTANCE,
                                     AtomOrder.from_labels("ab"))
