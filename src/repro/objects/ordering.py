"""Induced orderings of complex object domains (Definition 4.2).

Given a total order ``<_U`` on atomic constants, the paper defines an
induced total order ``<_T`` on ``dom(T, D)`` for every type T:

* tuples compare lexicographically component-wise;
* sets compare by their maximal differing element:
  ``o1 <_T o2`` iff ``max(o1 - o2) <_S max(o2 - o1)`` (with the max of the
  empty set below everything).

This module implements the order three equivalent ways, and the tests
check they agree:

1. a direct comparator (:func:`compare`) transliterating Definition 4.2;
2. a sort key (:func:`sort_key`) — the set order equals lexicographic
   comparison of descending-sorted element sequences;
3. arithmetic ranks (:func:`rank` / :func:`unrank`) — the set order equals
   numeric order of the characteristic number ``sum(2**rank(e))``; tuple
   ranks use mixed radix.  Ranks make :func:`successor` and the tape
   indexing of the Theorem 4.1 simulation O(log) instead of enumerative.

The central object is :class:`AtomOrder`, an enumeration of a finite atom
universe D standing for ``<_U``.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .domains import DEFAULT_MAX_ENUMERATION, DomainTooLarge, domain_cardinality
from .types import AtomType, SetType, TupleType, Type
from .values import Atom, CSet, CTuple, Value


class OrderError(Exception):
    """Raised when a value is outside the ordered universe, etc."""


class AtomOrder:
    """A total order ``<_U`` on a finite set of atomic constants.

    Constructed from an enumeration (sequence) of distinct atoms; the
    enumeration *is* the order.  ``AtomOrder.sorted_by_label(atoms)``
    builds the canonical order sorted by atom label, which is what the
    paper's examples (``abc``, ``abcde``) use.
    """

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Iterable[Atom]):
        atoms = tuple(atoms)
        for a in atoms:
            if not isinstance(a, Atom):
                raise OrderError(f"expected Atom, got {a!r}")
        index = dict(zip(atoms, range(len(atoms))))
        if len(index) != len(atoms):
            # A repeated atom keeps its last position: the first atom
            # whose position disagrees is a duplicate.
            duplicate = next(a for position, a in enumerate(atoms)
                             if index[a] != position)
            raise OrderError(f"duplicate atom {duplicate!r} in order")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AtomOrder is immutable")

    @classmethod
    def sorted_by_label(cls, atoms: Iterable[Atom]) -> "AtomOrder":
        """The order sorting atoms by ``(type, label)`` — deterministic."""
        ordered = list(atoms)
        if all(type(a.label) is str for a in ordered):
            # One label type: the (type, label) key reduces to the label.
            ordered.sort(key=attrgetter("label"))
        else:
            ordered.sort(key=lambda a: (type(a.label).__name__, str(a.label)))
        return cls(ordered)

    @classmethod
    def from_labels(cls, labels: Iterable[object]) -> "AtomOrder":
        """Build from raw labels, e.g. ``AtomOrder.from_labels("abc")``."""
        return cls(Atom(label) for label in labels)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __contains__(self, a: object) -> bool:
        return a in self._index

    def index(self, a: Atom) -> int:
        """Position of ``a`` in the order (0-based)."""
        try:
            return self._index[a]
        except KeyError:
            raise OrderError(f"atom {a!r} not in ordered universe") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AtomOrder) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash((AtomOrder, self.atoms))

    def __repr__(self) -> str:
        return f"AtomOrder({''.join(str(a) for a in self.atoms)!r})"


# ---------------------------------------------------------------------------
# 1. Direct comparator (Definition 4.2, verbatim)
# ---------------------------------------------------------------------------

def compare(a: Value, b: Value, order: AtomOrder) -> int:
    """Three-way comparison of two same-typed values under ``<_T``.

    Returns -1, 0 or 1.  Transliterates Definition 4.2: lexicographic on
    tuples; max-differing-element on sets.
    """
    if isinstance(a, Atom) and isinstance(b, Atom):
        ia, ib = order.index(a), order.index(b)
        return (ia > ib) - (ia < ib)
    if isinstance(a, CTuple) and isinstance(b, CTuple):
        if a.arity != b.arity:
            raise OrderError(f"comparing tuples of arities {a.arity}/{b.arity}")
        for item_a, item_b in zip(a.items, b.items):
            result = compare(item_a, item_b, order)
            if result != 0:
                return result
        return 0
    if isinstance(a, CSet) and isinstance(b, CSet):
        only_a = a.elements - b.elements
        only_b = b.elements - a.elements
        if not only_a and not only_b:
            return 0
        if not only_a:
            return -1  # max of empty set is below everything
        if not only_b:
            return 1
        max_a = _max_element(only_a, order)
        max_b = _max_element(only_b, order)
        return compare(max_a, max_b, order)
    raise OrderError(f"cannot compare {a!r} with {b!r}")


def _max_element(elements: Iterable[Value], order: AtomOrder) -> Value:
    """Maximum of a non-empty collection under ``<_S``."""
    best: Value | None = None
    for element in elements:
        if best is None or compare(element, best, order) > 0:
            best = element
    assert best is not None
    return best


def less_than(a: Value, b: Value, order: AtomOrder) -> bool:
    """``a <_T b`` (strict)."""
    return compare(a, b, order) < 0


# ---------------------------------------------------------------------------
# 2. Sort keys
# ---------------------------------------------------------------------------

def sort_key(value: Value, order: AtomOrder) -> tuple:
    """A key such that comparing keys == comparing values under ``<_T``.

    Sets map to their elements' keys sorted descending; lexicographic
    comparison of those sequences (with shorter-prefix-first) coincides
    with the max-differing-element order.
    """
    if isinstance(value, Atom):
        return (order.index(value),)
    if isinstance(value, CTuple):
        return tuple(sort_key(item, order) for item in value.items)
    if isinstance(value, CSet):
        keys = sorted((sort_key(e, order) for e in value.elements), reverse=True)
        return tuple(keys)
    raise OrderError(f"unknown value {value!r}")


def sorted_values(values: Iterable[Value], order: AtomOrder) -> list[Value]:
    """Sort same-typed values ascending under ``<_T``."""
    return sorted(values, key=lambda v: sort_key(v, order))


# ---------------------------------------------------------------------------
# 3. Arithmetic ranks
# ---------------------------------------------------------------------------

def rank(value: Value, typ: Type, order: AtomOrder) -> int:
    """Position of ``value`` in ``dom(typ, D)`` under ``<_T`` (0-based).

    Computed arithmetically: atoms use their index; tuples use mixed-radix
    over component ranks; sets use the characteristic number
    ``sum(2**rank(element))``, which realises exactly the induced order.
    """
    n = len(order)
    if isinstance(typ, AtomType):
        if not isinstance(value, Atom):
            raise OrderError(f"{value!r} is not an atom")
        return order.index(value)
    if isinstance(typ, TupleType):
        if not isinstance(value, CTuple) or value.arity != typ.arity:
            raise OrderError(f"{value!r} does not fit tuple type {typ!r}")
        result = 0
        for item, comp in zip(value.items, typ.components):
            radix = domain_cardinality(comp, n)
            result = result * radix + rank(item, comp, order)
        return result
    if isinstance(typ, SetType):
        if not isinstance(value, CSet):
            raise OrderError(f"{value!r} is not a set")
        result = 0
        for element in value.elements:
            result += 1 << rank(element, typ.element, order)
        return result
    raise OrderError(f"unknown type {typ!r}")


def unrank(position: int, typ: Type, order: AtomOrder) -> Value:
    """Inverse of :func:`rank`: the ``position``-th value of ``dom(typ, D)``."""
    n = len(order)
    total = domain_cardinality(typ, n)
    if not 0 <= position < total:
        raise OrderError(f"rank {position} out of range [0, {total}) for {typ!r}")
    if isinstance(typ, AtomType):
        return order.atoms[position]
    if isinstance(typ, TupleType):
        radices = [domain_cardinality(c, n) for c in typ.components]
        digits: list[int] = []
        for radix in reversed(radices):
            digits.append(position % radix)
            position //= radix
        digits.reverse()
        return CTuple(
            unrank(digit, comp, order)
            for digit, comp in zip(digits, typ.components)
        )
    if isinstance(typ, SetType):
        elements = []
        bit = 0
        while position:
            if position & 1:
                elements.append(unrank(bit, typ.element, order))
            position >>= 1
            bit += 1
        return CSet(elements)
    raise OrderError(f"unknown type {typ!r}")


def successor(value: Value, typ: Type, order: AtomOrder) -> Value | None:
    """The successor of ``value`` in ``dom(typ, D)``, or None if maximal."""
    position = rank(value, typ, order) + 1
    if position >= domain_cardinality(typ, len(order)):
        return None
    return unrank(position, typ, order)


def minimum(typ: Type, order: AtomOrder) -> Value:
    """The minimal element of ``dom(typ, D)`` under ``<_T``."""
    return unrank(0, typ, order)


def maximum(typ: Type, order: AtomOrder) -> Value:
    """The maximal element of ``dom(typ, D)`` under ``<_T``."""
    return unrank(domain_cardinality(typ, len(order)) - 1, typ, order)


def ordered_domain(
    typ: Type,
    order: AtomOrder,
    max_size: int | None = DEFAULT_MAX_ENUMERATION,
) -> Iterator[Value]:
    """Enumerate ``dom(typ, D)`` in increasing induced order.

    Guarded by ``max_size`` like :func:`repro.objects.domains.enumerate_domain`.
    """
    total = domain_cardinality(typ, len(order))
    if max_size is not None and total > max_size:
        raise DomainTooLarge(f"|dom({typ!r})| = {total} > cap {max_size}")
    for position in range(total):
        yield unrank(position, typ, order)


def tuple_rank(values: Sequence[Value], types: Sequence[Type],
               order: AtomOrder) -> int:
    """Rank of an m-tuple of values in the lexicographic product order.

    Used for the m-tuple timestamps/cell indices of the Theorem 4.1
    simulation, where the tuple is not wrapped in a CTuple.
    """
    result = 0
    for value, typ in zip(values, types):
        radix = domain_cardinality(typ, len(order))
        result = result * radix + rank(value, typ, order)
    return result


def tuple_unrank(position: int, types: Sequence[Type],
                 order: AtomOrder) -> tuple[Value, ...]:
    """Inverse of :func:`tuple_rank`."""
    radices = [domain_cardinality(t, len(order)) for t in types]
    digits: list[int] = []
    for radix in reversed(radices):
        digits.append(position % radix)
        position //= radix
    if position:
        raise OrderError("rank out of range for tuple_unrank")
    digits.reverse()
    return tuple(
        unrank(digit, typ, order) for digit, typ in zip(digits, types)
    )


def all_atom_orders(atoms: Iterable[Atom]) -> Iterator[AtomOrder]:
    """All |D|! enumerations of an atom universe (for invariance tests)."""
    for permutation in itertools.permutations(tuple(atoms)):
        yield AtomOrder(permutation)
