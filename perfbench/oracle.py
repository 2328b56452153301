"""Expected answers computed in plain Python from the generator's rows.

The oracle never calls an engine, a parser or the library's checksum:
each inventory question is restated as a few set comprehensions over
the rows ``supply_chain_instance`` produced, and the checksum is
recomputed from its documented definition (CRC-32 of the sorted row
reprs, one per line).  The benchmark holds every timed answer to these
rows, so a defect in the lane being timed cannot hide behind itself.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from typing import Callable

from repro.objects.values import Atom, CSet


def checksum(rows) -> int:
    """CRC-32 of the sorted row reprs joined by newlines."""
    text = "\n".join(sorted(repr(row) for row in rows))
    return zlib.crc32(text.encode("utf-8"))


def _closure(edges) -> set[tuple]:
    """Transitive closure of a finite edge set, by search from each node."""
    successors: dict = defaultdict(set)
    for x, y in edges:
        successors[x].add(y)
    pairs = set()
    for x in list(successors):
        seen: set = set()
        stack = list(successors[x])
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(successors.get(y, ()))
        pairs.update((x, y) for y in seen)
    return pairs


class Oracle:
    """Answers of every inventory question over one instance's rows."""

    def __init__(self, inst):
        self.rows = {name: [row.items for row in inst.relation(name)]
                     for name in inst.schema.relation_names}
        self._bom_tc: set | None = None
        self._edge_tc: set | None = None

    def add_orders(self, labels) -> None:
        """Append ``(order, customer, part)`` label rows to ``Order``."""
        self.rows["Order"] = self.rows["Order"] + [
            tuple(Atom(label) for label in row) for row in labels]

    def answer(self, template: str, constant: str | None = None
               ) -> frozenset:
        key = Atom(constant) if constant is not None else None
        return frozenset(_ANSWERS[template](self, key))

    # -- shared derived relations ------------------------------------------

    def bom_tc(self) -> set:
        if self._bom_tc is None:
            self._bom_tc = _closure(self.rows["BOM"])
        return self._bom_tc

    def edge_tc(self) -> set:
        if self._edge_tc is None:
            self._edge_tc = _closure(self.rows["SupplierEdge"])
        return self._edge_tc

    def certified(self, cert: str) -> set:
        return {p for p, cs in self.rows["PartCert"]
                if Atom(cert) in cs.elements}

    def emea_customers(self) -> set:
        return {c for c, region in self.rows["Customer"]
                if region == Atom("emea")}


def _unary(values) -> list:
    return [(value,) for value in values]


_ANSWERS: dict[str, Callable[[Oracle, Atom | None], object]] = {
    "parts-electronics": lambda o, k: _unary(
        p for p, cat in o.rows["Part"] if cat == Atom("electronics")),
    "cert-iso9001": lambda o, k: _unary(o.certified("iso9001")),
    "dual-cert": lambda o, k: _unary(
        o.certified("iso9001") & o.certified("rohs")),
    "uncertified-parts": lambda o, k: _unary(
        p for p, cs in o.rows["PartCert"] if not cs.elements),
    "tier1-suppliers": lambda o, k: _unary(
        s for s, tier in o.rows["Supplier"] if tier == Atom("tier1")),
    "suppliers-of-part": lambda o, k: _unary(
        s for p, s in o.rows["PartSupplier"] if p == k),
    "apex-components": lambda o, k: _unary(
        c for a, cs in o.rows["Assembly"] if a == k for c in cs.elements),
    "customers-emea": lambda o, k: _unary(o.emea_customers()),
    "orders-of-customer": lambda o, k: [
        (order, p) for order, c, p in o.rows["Order"] if c == k],
    "parts-ordered-emea": lambda o, k: _join_unary(
        ((c, p) for _, c, p in o.rows["Order"]), o.emea_customers()),
    "low-stock": lambda o, k: [
        (p, f) for f, p, band in o.rows["Inventory"] if band == Atom("low")],
    "electronics-suppliers": lambda o, k: _join_unary(
        o.rows["PartSupplier"],
        {p for p, cat in o.rows["Part"] if cat == Atom("electronics")}),
    "co-suppliers": lambda o, k: _co_suppliers(o),
    "itar-suppliers": lambda o, k: _join_unary(
        o.rows["PartSupplier"], o.certified("itar")),
    "high-stock-assemblies": lambda o, k: _unary(
        {a for a, _ in o.rows["Assembly"]}
        & {p for _, p, band in o.rows["Inventory"]
           if band == Atom("high")}),
    "bom-closure": lambda o, k: o.bom_tc(),
    "bom-explosion-apex": lambda o, k: _unary(
        y for x, y in o.bom_tc() if x == k),
    "where-used-leaf": lambda o, k: _unary(
        x for x, y in o.bom_tc() if y == k),
    "upstream-of-s0000": lambda o, k: _unary(
        x for x, y in o.edge_tc() if y == k),
    "supplier-network-closure": lambda o, k: o.edge_tc(),
    "itar-exposure": lambda o, k: _join_unary(
        ((y, x) for x, y in o.bom_tc()), o.certified("itar")),
    "reach-exposed-customers": lambda o, k: _reach_exposed(o),
    "apex-component-suppliers": lambda o, k: _join_unary(
        o.rows["PartSupplier"], {y for x, y in o.bom_tc() if x == k}),
    "shared-subcomponents": lambda o, k: _shared_subcomponents(o),
    "calc-cert-pairs": lambda o, k: [
        (p, c) for p, cs in o.rows["PartCert"] for c in cs.elements],
    "calc-certified-parts": lambda o, k: _unary(
        p for p, cs in o.rows["PartCert"] if cs.elements),
    "calc-order-nest": lambda o, k: _order_nest(o),
    "calc-bom-tc": lambda o, k: o.bom_tc(),
    "calc-supplier-tc": lambda o, k: o.edge_tc(),
    # The PFP stage keeps S(x, y) as a disjunct, so it only grows and
    # converges to the same closure.
    "calc-supplier-pfp": lambda o, k: o.edge_tc(),
}


def _join_unary(pairs, keys: set) -> list:
    """``{(v,) | (k, v) in pairs, k in keys}``."""
    return _unary(v for k, v in pairs if k in keys)


def _co_suppliers(o: Oracle) -> set:
    by_part: dict = defaultdict(set)
    for p, s in o.rows["PartSupplier"]:
        by_part[p].add(s)
    return {(a, b) for suppliers in by_part.values()
            for a in suppliers for b in suppliers if a != b}


def _reach_exposed(o: Oracle) -> list:
    reach = o.certified("reach")
    has = reach | {x for x, y in o.bom_tc() if y in reach}
    return _join_unary(((p, c) for _, c, p in o.rows["Order"]), has)


def _shared_subcomponents(o: Oracle) -> set:
    ancestors: dict = defaultdict(set)
    for x, y in o.bom_tc():
        ancestors[y].add(x)
    return {(a, b) for group in ancestors.values()
            for a in group for b in group if a != b}


def _order_nest(o: Oracle) -> list:
    parts: dict = defaultdict(set)
    for _, c, p in o.rows["Order"]:
        parts[c].add(p)
    return [(c, CSet(ps)) for c, ps in parts.items()]


def known_templates() -> frozenset[str]:
    return frozenset(_ANSWERS)
