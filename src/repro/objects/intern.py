"""Value interning: dense integer ids for complex objects.

The engines of Sections 3-5 manipulate nested ``Atom``/``CTuple``/``CSet``
objects whose structural ``__eq__``/``__hash__`` walk the whole value on
every probe.  A :class:`ValueStore` replaces each distinct value by a
dense integer id assigned at construction via structural hashing: two
values receive the same id iff they are structurally equal, so relation
rows become tuples of machine ints and joins compare ids instead of
trees.  :class:`ColumnTable` packs such id-rows into ``array('q')``
columns — the columnar EDB representation the indexed semi-naive engine
(``datalog/engine.py``) probes.

Id assignment by :meth:`ValueStore.from_instance` is deterministic and
order-aware.  Values are collected under their *declared* column types
(inference would reject heterogeneous-but-conformant sets), grouped by
type, and the groups are processed in ascending type depth — a proper
subobject always has a strict-subterm type, hence a strictly smaller
depth, hence an earlier id.  Within one group the values are sorted by
the induced order ``<_T`` of Definition 4.2, so

    for values ``a``, ``b`` of the same declared type whose ids were
    both first assigned while processing that type's group,
    ``store.intern(a) < store.intern(b)``  iff  ``a <_T b``.

The guarantee is per declared type: a value conforming to several
declared types (e.g. ``[x, {}]`` under both ``[U,{U}]`` and
``[U,{{U}}]``) keeps the id of the earliest (smallest-depth) group that
contains it, and a perfect global order cannot exist across such shared
values.  Atoms always form the depth-1 group, so atom ids are exactly
their :class:`~repro.objects.ordering.AtomOrder` ranks.  Because the
collection and sorts are deterministic, re-parsing the same instance
(e.g. through ``instance_to_json``/``instance_from_json``) reproduces
the same id for every value — ids are stable names within an instance.

Interning a whole instance (:func:`intern_instance`) is one traversal,
linear in ``||I||`` apart from the per-group sorts, as the first step of
the Theorem 4.1 simulation (order ``atom(I)``, encode I) requires.  The
collection runs a column at a time and recurses only into values new to
their group; it also yields ``atom(I)`` (every atom sits at a declared-U
position), so the default order needs no separate ``Instance.atoms()``
pass.  Rows are then mapped to id-rows with the ids just assigned, and
each :class:`ColumnTable` builds its row set once.  Nothing is cached
across calls: each call interns the instance afresh.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Iterator, Mapping

from .instance import Instance, Relation
from .ordering import AtomOrder, OrderError, sort_key
from .types import AtomType, SetType, TupleType, Type
from .values import Atom, AtomLabel, CSet, CTuple, Value

__all__ = [
    "InternError",
    "ValueStore",
    "ColumnTable",
    "intern_instance",
    "type_depth",
]


class InternError(Exception):
    """Raised for values a store cannot intern or ids it does not know."""


def type_depth(typ: Type) -> int:
    """Structural depth of a type expression: ``depth(U) = 1``,
    ``depth({T}) = depth(T) + 1``, ``depth([T1..Tk]) = 1 + max depth``.

    Every proper subobject of a ``T``-value has a strict-subterm type of
    ``T``, so its depth is strictly smaller — the invariant
    :meth:`ValueStore.from_instance` relies on for bottom-up ids.
    """
    if isinstance(typ, AtomType):
        return 1
    if isinstance(typ, SetType):
        return 1 + type_depth(typ.element)
    if isinstance(typ, TupleType):
        return 1 + max(type_depth(c) for c in typ.components)
    raise InternError(f"unknown type {typ!r}")


class ValueStore:
    """A per-instance intern table: structural value ⟷ dense integer id.

    Ids are assigned on first :meth:`intern` in increasing order; the
    structural key of an atom is its label, of a tuple the tuple of its
    component ids, of a set the frozenset of its element ids — so
    interning is injective by construction (equal ids iff structurally
    equal values) and membership/equality on ids coincide with the
    object-level semantics.
    """

    __slots__ = ("_ids", "_keys", "_values")

    def __init__(self) -> None:
        # key -> id; keys are ("a", label) | ("t", id-tuple) | ("s", id-frozenset)
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._values: list[Value] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, value: object) -> bool:
        try:
            key = self._key_of(value)  # type: ignore[arg-type]
        except InternError:
            return False
        return key in self._ids

    def _key_of(self, value: Value) -> tuple:
        """The structural key of ``value`` **without** interning it.

        Raises :class:`InternError` when some subobject is unknown."""
        if isinstance(value, Atom):
            key: tuple = ("a", value.label)
        elif isinstance(value, CTuple):
            key = ("t", tuple(self._lookup(item) for item in value.items))
        elif isinstance(value, CSet):
            key = ("s", frozenset(self._lookup(e) for e in value.elements))
        else:
            raise InternError(f"cannot intern non-Value {value!r}")
        return key

    def _lookup(self, value: Value) -> int:
        vid = self._ids.get(self._key_of(value))
        if vid is None:
            raise InternError(f"value not interned: {value!r}")
        return vid

    def _add(self, key: tuple, value: Value) -> int:
        vid = len(self._keys)
        self._ids[key] = vid
        self._keys.append(key)
        self._values.append(value)
        return vid

    def intern(self, value: Value) -> int:
        """Return the dense id of ``value``, assigning one (and ids for
        all its subobjects) on first sight."""
        if isinstance(value, Atom):
            key: tuple = ("a", value.label)
        elif isinstance(value, CTuple):
            key = ("t", tuple(self.intern(item) for item in value.items))
        elif isinstance(value, CSet):
            key = ("s", frozenset(self.intern(e) for e in value.elements))
        else:
            raise InternError(f"cannot intern non-Value {value!r}")
        vid = self._ids.get(key)
        return self._add(key, value) if vid is None else vid

    def intern_row(self, row: Iterable[Value]) -> tuple[int, ...]:
        return tuple(self.intern(value) for value in row)

    def _key_at(self, vid: int) -> tuple:
        """The structural key behind ``vid``; :class:`InternError` for
        anything but an assigned id (negative indexes included)."""
        if isinstance(vid, int) and 0 <= vid < len(self._keys):
            return self._keys[vid]
        raise InternError(f"unknown value id {vid!r}")

    def value(self, vid: int) -> Value:
        """The value named by ``vid`` (inverse of :meth:`intern`)."""
        if isinstance(vid, int) and 0 <= vid < len(self._values):
            return self._values[vid]
        raise InternError(f"unknown value id {vid!r}")

    def unintern_row(self, ids: Iterable[int]) -> tuple[Value, ...]:
        return tuple(self.value(vid) for vid in ids)

    # -- id-level structure (what the interned Datalog engine probes) -----

    def set_members(self, vid: int) -> frozenset[int] | None:
        """Element ids of a set value, ``None`` if not a set."""
        kind, payload = self._key_at(vid)
        return payload if kind == "s" else None

    # -- deterministic, order-compatible construction ----------------------

    @classmethod
    def from_instance(cls, inst: Instance,
                      order: AtomOrder | None = None) -> "ValueStore":
        """Intern every value occurring in ``inst`` deterministically.

        ``order`` defaults to ``AtomOrder.sorted_by_label(inst.atoms())``
        and must cover every atom of the instance.  See the module
        docstring for the order-compatibility guarantee.
        """
        return _InstanceInterner(inst, order).store


class _InstanceInterner:
    """One traversal of an instance: collect its values under their
    declared column types, assign ids group by group, and map rows to
    id-rows.

    Collection and row mapping run a column at a time.  Atoms are keyed
    by label, whose hash is computed in C, and compound values by value;
    each compound's key is built from the ids of its components, which
    belong to smaller-depth groups and so already have ids.
    """

    def __init__(self, inst: Instance, order: AtomOrder | None):
        self.atoms: dict[AtomLabel, Atom] = {}
        groups: dict[Type, set[Value]] = {}
        for rel in inst.relations():
            for position, typ in enumerate(rel.schema.column_types):
                self._collect(_column(rel, position), typ, groups)
        if order is None:
            # Construction typechecked every row, so each atom sits at a
            # declared-U position: the collected atoms are atom(inst).
            order = AtomOrder.sorted_by_label(self.atoms.values())
        self.atom_ids = {a.label: rank for rank, a in enumerate(order.atoms)}
        missing = self.atoms.keys() - self.atom_ids.keys()
        if missing:
            raise OrderError(f"atom {self.atoms[missing.pop()]!r} "
                             f"not in ordered universe")
        store = self.store = ValueStore()
        # Atoms first, as their order ranks (atoms mentioned only by
        # `order` get theirs too).
        store._keys.extend(("a", a.label) for a in order.atoms)
        store._values.extend(order.atoms)
        store._ids.update(zip(store._keys, range(len(order))))
        self.ids: dict[Value, int] = {}
        for typ in sorted(groups, key=lambda t: (type_depth(t), repr(t))):
            for value in sorted(groups[typ], key=lambda v: sort_key(v, order)):
                if isinstance(value, CTuple):
                    key: tuple = ("t", tuple(map(self._id, value.items)))
                else:
                    assert isinstance(value, CSet)
                    key = ("s", frozenset(map(self._id, value.elements)))
                vid = store._ids.get(key)
                self.ids[value] = store._add(key, value) if vid is None else vid

    def _id(self, value: Value) -> int:
        """The id of an already-collected value."""
        if isinstance(value, Atom):
            return self.atom_ids[value.label]
        return self.ids[value]

    def _collect(self, values: list[Any], typ: Type,
                 groups: dict[Type, set[Value]]) -> None:
        """Record ``values`` under their declared type ``typ``, recursing
        into the subobjects of those new to its group (instance
        construction already typechecked that they conform)."""
        if isinstance(typ, AtomType):
            atoms = self.atoms
            for atom_ in values:
                atoms.setdefault(atom_.label, atom_)
            return
        group = groups.setdefault(typ, set())
        fresh = set(values)
        fresh -= group
        group |= fresh
        if isinstance(typ, SetType):
            self._collect([e for v in fresh for e in v.elements],
                          typ.element, groups)
        elif isinstance(typ, TupleType):
            for position, component in enumerate(typ.components):
                self._collect([v.items[position] for v in fresh],
                              component, groups)

    def id_rows(self, rel: Relation) -> list[tuple[int, ...]]:
        """The rows of ``rel`` as id-rows, mapped a column at a time."""
        columns = []
        for position, typ in enumerate(rel.schema.column_types):
            column = _column(rel, position)
            if isinstance(typ, AtomType):
                atom_ids = self.atom_ids
                columns.append([atom_ids[atom_.label] for atom_ in column])
            else:
                ids = self.ids
                columns.append([ids[value] for value in column])
        return list(zip(*columns))


def _column(rel: Relation, position: int) -> list[Any]:
    """The values at ``position`` of every row, in the relation's
    (stable) iteration order."""
    return [row.items[position] for row in rel.tuples]


class ColumnTable:
    """Interned rows stored column-major in ``array('q')`` buffers.

    The columnar layout keeps each relation's ids in contiguous machine
    ints; iteration re-zips them on demand.  ``to_frozenset`` is the
    set-of-rows view the fixpoint protocols union over and the engines
    probe; it is built once, at construction.
    """

    __slots__ = ("columns", "_length", "_rows")

    def __init__(self, rows: Iterable[tuple[int, ...]], arity: int | None = None):
        materialized = [tuple(row) for row in rows]
        if arity is None:
            arity = len(materialized[0]) if materialized else 0
        for row in materialized:
            if len(row) != arity:
                raise InternError(
                    f"row {row!r} does not match table arity {arity}")
        if materialized:
            columns = tuple(array("q", column)
                            for column in zip(*materialized))
        else:
            columns = tuple(array("q") for _ in range(arity))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_length", len(materialized))
        object.__setattr__(self, "_rows", frozenset(materialized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ColumnTable is immutable")

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self._length

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(column[i] for column in self.columns)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for i in range(self._length):
            yield tuple(column[i] for column in self.columns)

    def to_frozenset(self) -> frozenset[tuple[int, ...]]:
        return self._rows


def intern_instance(
    inst: Instance,
    order: AtomOrder | None = None,
    store: ValueStore | None = None,
) -> tuple[ValueStore, Mapping[str, ColumnTable]]:
    """Intern ``inst`` into ``(store, {relation name: ColumnTable})``.

    Without a ``store``, this is one traversal of the instance: the ids
    :meth:`ValueStore.from_instance` assigns also map the rows.  A given
    ``store`` interns each row value by value.  Table rows are sorted by
    id-tuple, so the columnar buffers (not just the id assignment) are
    reproducible across re-parses.
    """
    if store is None:
        interner = _InstanceInterner(inst, order)
        store = interner.store
        id_rows = {rel.name: interner.id_rows(rel)
                   for rel in inst.relations()}
    else:
        id_rows = {rel.name: [store.intern_row(row.items)
                              for row in rel.tuples]
                   for rel in inst.relations()}
    return store, {
        rel.name: ColumnTable(sorted(id_rows[rel.name]),
                              arity=rel.schema.arity)
        for rel in inst.relations()
    }
