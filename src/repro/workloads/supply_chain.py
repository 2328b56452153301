"""The supply-chain workload: a realistic nested instance family at scale.

Every other workload in :mod:`repro.workloads` is a synthetic graph or a
type tower.  This one exercises what complex objects are *for* (ROADMAP
item 4, modelled on virt-graph's 15-table benchmark design): nested
set-valued attributes (part certifications, BOM subtrees as set values),
multi-hop fixpoints over realistic hierarchies (BOM explosion,
supplier-tier reachability), and range-restricted join/lookup queries —
all at sizes up to 100K+ rows.

Schema (10 relations; ``U`` columns hold atoms, ``{U}`` columns hold
atom sets)::

    Part[U, U]            part        -> category
    PartCert[U, {U}]      part        -> certification set   (nested)
    Assembly[U, {U}]      assembly    -> direct-component set (nested)
    BOM[U, U]             parent part -> child part          (acyclic)
    Supplier[U, U]        supplier    -> tier (tier1|tier2|tier3)
    SupplierEdge[U, U]    seller      -> buyer (tier3->tier2->tier1)
    PartSupplier[U, U]    part        -> approved supplier
    Customer[U, U]        customer    -> region
    Order[U, U, U]        order, customer, part
    Inventory[U, U, U]    facility, part, stock band (low|mid|high)

**Determinism.**  ``supply_chain_instance(scale, seed)`` is a pure
function of its arguments: the same ``(scale, seed)`` always produces a
byte-identical instance (pinned by
:func:`repro.obs.ledger.instance_checksum` in the tests and goldens).

**Row-count formulas** (``scale`` = the size parameter, checked exactly
by :func:`supply_chain_rows` and the property tests)::

    Part          40*scale        Supplier       5*scale
    PartCert      40*scale        SupplierEdge   tier2*min(2, tier1)
    Assembly      13*scale                       + tier3*min(2, tier2)
    BOM           39*scale                       (= 8*scale once scale>=2)
    Customer      10*scale        PartSupplier  80*scale
    Inventory     80*scale        Order        100*scale
                                  ------------------------------------
                                  total        415*scale  (scale>=2)

``scale=256`` yields 106,240 rows — the 100K+ fixture ROADMAP items
1–3 are measured against.  Parts are organised in blocks of 40 forming
a ternary BOM tree each (depth 3), so the full BOM closure has exactly
``102*scale`` rows and every BOM fixpoint converges in a pinned,
scale-independent stage count.

**The golden question inventory.**  :data:`QUESTIONS` holds ~30
questions — textual ``.dl`` Datalog programs and CALC/IFP/PFP queries —
each tagged with a routing verdict in virt-graph's traffic-light scheme
(GREEN = nonrecursive/LOGSPACE, YELLOW = linear-recursive/PTIME, RED =
PFP/PSPACE).  :func:`answer_question` evaluates one question under any
engine lane (naive / seminaive / interned); committed expected answers
at pinned ``(seed, scale)`` points live next to this module in
``supply_chain_golden.json`` (:func:`load_golden`/:func:`write_golden`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Mapping

from ..core.syntax import Query
from ..objects.instance import Instance
from ..objects.schema import DatabaseSchema, database_schema
from ..objects.values import Atom, CSet

__all__ = [
    "BANDS",
    "CATEGORIES",
    "CERTIFICATIONS",
    "FACILITIES",
    "GOLDEN_PATH",
    "GOLDEN_SCALES",
    "GOLDEN_SEED",
    "QUESTIONS",
    "REGIONS",
    "SCALES",
    "TIERS",
    "Question",
    "QuestionAnswer",
    "answer_question",
    "bom_closure_rows",
    "load_golden",
    "question_by_name",
    "question_verdict",
    "supply_chain_instance",
    "supply_chain_rows",
    "supply_chain_schema",
    "write_golden",
]


# ---------------------------------------------------------------------------
# Vocabulary: the fixed atom universes shared by every scale
# ---------------------------------------------------------------------------

#: Named sizes for CLI/bench convenience; ``large`` is the 100K+ point.
SCALES: dict[str, int] = {"tiny": 1, "small": 4, "medium": 32, "large": 256}

CATEGORIES = ("electronics", "mechanical", "raw", "fastener",
              "optics", "polymer", "alloy", "coating")
CERTIFICATIONS = ("iso9001", "iso14001", "rohs", "reach", "as9100", "itar")
TIERS = ("tier1", "tier2", "tier3")
BANDS = ("low", "mid", "high")
REGIONS = ("amer", "emea", "apac", "anz")
FACILITIES = ("f0", "f1", "f2", "f3", "f4")

#: Parts per block; each block is one ternary BOM tree of this size.
_BLOCK = 40
#: Internal (assembly) nodes per block: local indices 0..12 have children.
_BLOCK_INTERNAL = 13
#: BOM edges per block: every non-root node has exactly one parent.
_BLOCK_EDGES = _BLOCK - 1
#: Ancestor pairs per block: sum of node depths (3*1 + 9*2 + 27*3).
_BLOCK_CLOSURE = 102


def supply_chain_schema() -> DatabaseSchema:
    """The 10-relation nested supply-chain schema (see module docs)."""
    return database_schema(
        Part=["U", "U"],
        PartCert=["U", "{U}"],
        Assembly=["U", "{U}"],
        BOM=["U", "U"],
        Supplier=["U", "U"],
        SupplierEdge=["U", "U"],
        PartSupplier=["U", "U"],
        Customer=["U", "U"],
        Order=["U", "U", "U"],
        Inventory=["U", "U", "U"],
    )


def _tier_counts(scale: int) -> tuple[int, int, int]:
    """(tier1, tier2, tier3) supplier counts: 5*scale total."""
    return scale, 2 * scale, 2 * scale


def supply_chain_rows(scale: int) -> dict[str, int]:
    """Exact per-relation row counts at ``scale`` — the documented
    formulas the generator and the property tests both pin."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    tier1, tier2, tier3 = _tier_counts(scale)
    return {
        "Part": _BLOCK * scale,
        "PartCert": _BLOCK * scale,
        "Assembly": _BLOCK_INTERNAL * scale,
        "BOM": _BLOCK_EDGES * scale,
        "Supplier": tier1 + tier2 + tier3,
        "SupplierEdge": tier2 * min(2, tier1) + tier3 * min(2, tier2),
        "PartSupplier": 2 * _BLOCK * scale,
        "Customer": 10 * scale,
        "Order": 100 * scale,
        "Inventory": 2 * _BLOCK * scale,
    }


def bom_closure_rows(scale: int) -> int:
    """|TC(BOM)| at ``scale``: ancestor/descendant pairs, 102 per block."""
    return _BLOCK_CLOSURE * scale


def supply_chain_instance(scale: int, seed: int = 0) -> Instance:
    """The deterministic supply-chain instance at ``scale``.

    Labels use scale-independent widths (``p000000``, ``s0000``,
    ``c00000``, ``o000000``), so the named test entities the question
    inventory references — the apex assembly ``p000000``, the tier-1
    supplier ``s0000``, the customer ``c00000`` — exist at every scale.
    Supports ``scale <= 1999`` (label-width headroom).
    """
    if not 1 <= scale <= 1999:
        raise ValueError(f"scale must be in 1..1999, got {scale}")
    rng = Random(f"supply-chain:{scale}:{seed}")
    n_parts = _BLOCK * scale
    parts = [Atom(f"p{i:06d}") for i in range(n_parts)]
    tier1, tier2, tier3 = _tier_counts(scale)
    suppliers = [Atom(f"s{i:04d}") for i in range(tier1 + tier2 + tier3)]
    tiers = ([Atom("tier1")] * tier1 + [Atom("tier2")] * tier2
             + [Atom("tier3")] * tier3)
    customers = [Atom(f"c{i:05d}") for i in range(10 * scale)]
    orders = [Atom(f"o{i:06d}") for i in range(100 * scale)]
    categories = [Atom(c) for c in CATEGORIES]
    certs = [Atom(c) for c in CERTIFICATIONS]
    bands = [Atom(b) for b in BANDS]
    regions = [Atom(r) for r in REGIONS]
    facilities = [Atom(f) for f in FACILITIES]

    part_rows = [(p, rng.choice(categories)) for p in parts]
    part_cert_rows = [
        (p, CSet(rng.sample(certs, rng.randint(0, 3)))) for p in parts
    ]

    # BOM: per 40-part block, a ternary tree (local parent = (i-1)//3).
    bom_rows: list[tuple[Atom, Atom]] = []
    assembly_rows: list[tuple[Atom, CSet]] = []
    for block in range(scale):
        base = _BLOCK * block
        for local in range(1, _BLOCK):
            bom_rows.append((parts[base + (local - 1) // 3],
                             parts[base + local]))
        for local in range(_BLOCK_INTERNAL):
            children = [parts[base + 3 * local + k] for k in (1, 2, 3)]
            assembly_rows.append((parts[base + local], CSet(children)))

    supplier_rows = list(zip(suppliers, tiers))
    tier1_pool = suppliers[:tier1]
    tier2_pool = suppliers[tier1:tier1 + tier2]
    tier3_pool = suppliers[tier1 + tier2:]
    edge_rows = []
    for seller in tier2_pool:
        for buyer in rng.sample(tier1_pool, min(2, len(tier1_pool))):
            edge_rows.append((seller, buyer))
    for seller in tier3_pool:
        for buyer in rng.sample(tier2_pool, min(2, len(tier2_pool))):
            edge_rows.append((seller, buyer))

    part_supplier_rows = [
        (p, s) for p in parts for s in rng.sample(suppliers, 2)
    ]
    # First cycle through the regions so every region is inhabited at
    # every scale (the inventory has per-region questions), then draw.
    customer_rows = [
        (c, regions[i] if i < len(regions) else rng.choice(regions))
        for i, c in enumerate(customers)
    ]
    order_rows = [
        (o, rng.choice(customers), rng.choice(parts)) for o in orders
    ]
    inventory_rows = [
        (f, p, rng.choice(bands))
        for p in parts for f in rng.sample(facilities, 2)
    ]

    return Instance(supply_chain_schema(), {
        "Part": part_rows,
        "PartCert": part_cert_rows,
        "Assembly": assembly_rows,
        "BOM": bom_rows,
        "Supplier": supplier_rows,
        "SupplierEdge": edge_rows,
        "PartSupplier": part_supplier_rows,
        "Customer": customer_rows,
        "Order": order_rows,
        "Inventory": inventory_rows,
    })


# ---------------------------------------------------------------------------
# The golden question inventory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Question:
    """One inventory question with its declared routing verdict.

    ``kind`` is ``"datalog"`` (``source`` holds a ``.dl`` program whose
    ``?-`` predicate is the answer relation) or ``"calc"`` (``build``
    constructs the :class:`~repro.core.syntax.Query`, evaluated under
    range restriction).  ``verdict`` uses virt-graph's scheme — GREEN =
    nonrecursive lookup/join (LOGSPACE), YELLOW = linear-recursive
    fixpoint (PTIME), RED = PFP (PSPACE) — and is asserted stable
    against the lint/adornment passes by :func:`question_verdict`.
    """

    name: str
    title: str
    kind: str  # "datalog" | "calc"
    verdict: str  # "GREEN" | "YELLOW" | "RED"
    source: str = ""
    build: Callable[[], Query] | None = None

    @property
    def recursive(self) -> bool:
        return self.verdict in ("YELLOW", "RED")


@dataclass(frozen=True)
class QuestionAnswer:
    """One question's answer under one lane: canonical rows, the
    order-independent checksum the goldens commit, and the fixpoint
    stage count (0 for nonrecursive questions)."""

    rows: frozenset
    checksum: int
    stages: int


def _dl(name: str, title: str, verdict: str, source: str) -> Question:
    return Question(name=name, title=title, kind="datalog",
                    verdict=verdict, source=source)


def _calc(name: str, title: str, verdict: str,
          build: Callable[[], Query]) -> Question:
    return Question(name=name, title=title, kind="calc",
                    verdict=verdict, build=build)


def _calc_cert_pairs() -> Query:
    """{(p, c) | exists s: PartCert(p, s) and c in s} — flatten the
    nested certification sets (GREEN: one nested unnest join)."""
    from ..core.builder import V, exists, member, query, rel

    p, c, s = V("p", "U"), V("c", "U"), V("s", "{U}")
    return query([p, c], exists(s, rel("PartCert")(p, s) & member(c, s)))


def _calc_certified_parts() -> Query:
    """{p | exists s: PartCert(p, s) and exists c in s} — parts holding
    at least one certification (GREEN: nested nonemptiness test)."""
    from ..core.builder import V, exists, member, query, rel

    p, c, s = V("p", "U"), V("c", "U"), V("s", "{U}")
    return query(
        [p], exists([s, c], rel("PartCert")(p, s) & member(c, s)))


def _calc_order_nest() -> Query:
    """{(c, s) | s = the set of parts customer c ordered} via an IFP
    term (Example 5.3's nest idiom on the Order relation — YELLOW)."""
    from ..core.builder import V, eq, exists, ifp, query, rel

    c, s = V("c", "U"), V("s", "{U}")
    o, p, o2 = V("o", "U"), V("p", "U"), V("o2", "U")
    yv = V("yv", "U")
    collected = ifp("Q", [("yv", "U")],
                    exists(o2, rel("Order")(o2, c, yv)) | rel("Q")(yv))
    return query([c, s],
                 exists([o, p], rel("Order")(o, c, p))
                 & eq(s, collected.as_term()))


def _calc_bom_tc() -> Query:
    from .queries import transitive_closure_query

    return transitive_closure_query("U", relation="BOM")


def _calc_supplier_tc() -> Query:
    from .queries import transitive_closure_query

    return transitive_closure_query("U", relation="SupplierEdge")


def _calc_supplier_pfp() -> Query:
    from .queries import pfp_transitive_closure_query

    return pfp_transitive_closure_query("U", relation="SupplierEdge")


#: The golden inventory: ~30 questions spanning GREEN/YELLOW (+1 RED).
QUESTIONS: tuple[Question, ...] = (
    # -- GREEN: lookups and joins (nonrecursive, LOGSPACE) ----------------
    _dl("parts-electronics", "Parts in the electronics category", "GREEN", """
        idb Q(U).
        Q(p) :- Part(p, 'electronics').
        ?- Q(p).
    """),
    _dl("cert-iso9001", "Parts certified iso9001 (nested membership)",
        "GREEN", """
        idb Q(U).
        Q(p) :- PartCert(p, cs), 'iso9001' in cs.
        ?- Q(p).
    """),
    _dl("dual-cert", "Parts certified both iso9001 and rohs", "GREEN", """
        idb Q(U).
        Q(p) :- PartCert(p, cs), 'iso9001' in cs, 'rohs' in cs.
        ?- Q(p).
    """),
    _dl("uncertified-parts", "Parts with an empty certification set",
        "GREEN", """
        idb Q(U).
        Q(p) :- PartCert(p, cs), cs = {}.
        ?- Q(p).
    """),
    _dl("tier1-suppliers", "Tier-1 suppliers", "GREEN", """
        idb Q(U).
        Q(s) :- Supplier(s, 'tier1').
        ?- Q(s).
    """),
    _dl("suppliers-of-part", "Approved suppliers of part p000013",
        "GREEN", """
        idb Q(U).
        Q(s) :- PartSupplier('p000013', s).
        ?- Q(s).
    """),
    _dl("apex-components", "Direct components of the apex assembly "
        "(nested set value)", "GREEN", """
        idb Q(U).
        Q(c) :- Assembly('p000000', cs), c in cs.
        ?- Q(c).
    """),
    _dl("customers-emea", "Customers in region emea", "GREEN", """
        idb Q(U).
        Q(c) :- Customer(c, 'emea').
        ?- Q(c).
    """),
    _dl("orders-of-customer", "Order lines of customer c00000", "GREEN", """
        idb Q(U, U).
        Q(o, p) :- Order(o, 'c00000', p).
        ?- Q(o, p).
    """),
    _dl("parts-ordered-emea", "Parts ordered by emea customers (join)",
        "GREEN", """
        idb Q(U).
        Q(p) :- Order(o, c, p), Customer(c, 'emea').
        ?- Q(p).
    """),
    _dl("low-stock", "Low-stock (part, facility) pairs", "GREEN", """
        idb Q(U, U).
        Q(p, f) :- Inventory(f, p, 'low').
        ?- Q(p, f).
    """),
    _dl("electronics-suppliers", "Suppliers approved for electronics "
        "parts (join)", "GREEN", """
        idb Q(U).
        Q(s) :- Part(p, 'electronics'), PartSupplier(p, s).
        ?- Q(s).
    """),
    _dl("co-suppliers", "Supplier pairs approved for a shared part",
        "GREEN", """
        idb Q(U, U).
        Q(a, b) :- PartSupplier(p, a), PartSupplier(p, b), a != b.
        ?- Q(a, b).
    """),
    _dl("itar-suppliers", "Suppliers of itar-certified parts "
        "(nested membership + join)", "GREEN", """
        idb Q(U).
        Q(s) :- PartSupplier(p, s), PartCert(p, cs), 'itar' in cs.
        ?- Q(s).
    """),
    _dl("high-stock-assemblies", "Assemblies held at band high somewhere",
        "GREEN", """
        idb Q(U).
        Q(a) :- Assembly(a, cs), Inventory(f, a, 'high').
        ?- Q(a).
    """),
    # -- YELLOW: multi-hop fixpoints (linear-recursive, PTIME) -----------
    _dl("bom-closure", "Full BOM ancestor/descendant closure", "YELLOW", """
        idb T(U, U).
        T(x, y) :- BOM(x, y).
        T(x, y) :- T(x, z), BOM(z, y).
        ?- T(x, y).
    """),
    _dl("bom-explosion-apex", "BOM explosion of the apex assembly "
        "p000000", "YELLOW", """
        idb R(U).
        R(c) :- BOM('p000000', c).
        R(c) :- R(z), BOM(z, c).
        ?- R(c).
    """),
    _dl("where-used-leaf", "Where-used: ancestors of leaf part p000039",
        "YELLOW", """
        idb A(U).
        A(x) :- BOM(x, 'p000039').
        A(x) :- BOM(x, z), A(z).
        ?- A(x).
    """),
    _dl("upstream-of-s0000", "Suppliers upstream of tier-1 supplier "
        "s0000 (tier reachability)", "YELLOW", """
        idb R(U).
        R(x) :- SupplierEdge(x, 's0000').
        R(x) :- SupplierEdge(x, z), R(z).
        ?- R(x).
    """),
    _dl("supplier-network-closure", "Transitive closure of the supplier "
        "network", "YELLOW", """
        idb T(U, U).
        T(x, y) :- SupplierEdge(x, y).
        T(x, y) :- T(x, z), SupplierEdge(z, y).
        ?- T(x, y).
    """),
    _dl("itar-exposure", "Assemblies transitively containing an "
        "itar-certified part", "YELLOW", """
        idb Bad(U).
        idb Up(U).
        Bad(p) :- PartCert(p, cs), 'itar' in cs.
        Up(x) :- BOM(x, p), Bad(p).
        Up(x) :- BOM(x, z), Up(z).
        ?- Up(x).
    """),
    _dl("reach-exposed-customers", "Customers whose ordered parts "
        "transitively contain a reach-certified part", "YELLOW", """
        idb Has(U).
        idb Q(U).
        Has(p) :- PartCert(p, cs), 'reach' in cs.
        Has(x) :- BOM(x, z), Has(z).
        Q(c) :- Order(o, c, p), Has(p).
        ?- Q(c).
    """),
    _dl("apex-component-suppliers", "Suppliers of any transitive "
        "component of the apex assembly", "YELLOW", """
        idb R(U).
        idb Q(U).
        R(c) :- BOM('p000000', c).
        R(c) :- R(z), BOM(z, c).
        Q(s) :- R(p), PartSupplier(p, s).
        ?- Q(s).
    """),
    _dl("shared-subcomponents", "Assembly pairs sharing a transitive "
        "subcomponent", "YELLOW", """
        idb T(U, U).
        idb Q(U, U).
        T(x, y) :- BOM(x, y).
        T(x, y) :- T(x, z), BOM(z, y).
        Q(a, b) :- T(a, z), T(b, z), a != b.
        ?- Q(a, b).
    """),
    # -- CALC: the calculus lanes over the same instance ------------------
    _calc("calc-cert-pairs", "Unnest the certification sets "
          "(CALC, range-restricted)", "GREEN", _calc_cert_pairs),
    _calc("calc-certified-parts", "Parts with a nonempty certification "
          "set (CALC)", "GREEN", _calc_certified_parts),
    _calc("calc-order-nest", "Nest ordered parts per customer via an "
          "IFP term (Example 5.3 idiom)", "YELLOW", _calc_order_nest),
    _calc("calc-bom-tc", "BOM closure via CALC+IFP (Example 3.1)",
          "YELLOW", _calc_bom_tc),
    _calc("calc-supplier-tc", "Supplier reachability via CALC+IFP",
          "YELLOW", _calc_supplier_tc),
    _calc("calc-supplier-pfp", "Supplier reachability via CALC+PFP "
          "(the PSPACE lane)", "RED", _calc_supplier_pfp),
)


def question_by_name(name: str) -> Question:
    for q in QUESTIONS:
        if q.name == name:
            return q
    known = ", ".join(q.name for q in QUESTIONS)
    raise KeyError(f"unknown question {name!r}; known: {known}")


def _parse_datalog(question: Question):
    from ..datalog import parse_program

    program, query = parse_program(question.source)
    if query is None:  # pragma: no cover - inventory invariant
        raise ValueError(f"question {question.name} has no ?- literal")
    return program, query


def answer_question(question: Question, inst: Instance,
                    strategy: str = "seminaive",
                    intern: bool = False) -> QuestionAnswer:
    """Evaluate one inventory question under one engine lane.

    Datalog questions run through :func:`evaluate_inflationary`; CALC
    questions run range-restricted (Theorem 5.1) so every lane is
    data-bounded.  ``intern`` selects the interned Datalog kernel and
    applies to ``.dl`` questions only: CALC questions always run on the
    object-level evaluator.  The checksum is the shared ledger/bench quantity
    (:func:`repro.obs.ledger.rows_checksum`), so goldens, bench
    agreement checks and the result cache all key on the same number.
    """
    from ..obs import Tracer, get_tracer, rows_checksum, use_tracer

    outer = get_tracer()
    tracer = outer if outer.enabled else Tracer()
    with use_tracer(tracer):
        before = (tracer.counters.get("ifp.stages", 0),
                  tracer.counters.get("pfp.stages", 0))
        if question.kind == "datalog":
            from ..datalog import evaluate_inflationary

            program, query = _parse_datalog(question)
            result = evaluate_inflationary(program, inst,
                                           strategy=strategy, intern=intern)
            rows = frozenset(tuple(row) for row in result[query.predicate])
        elif question.kind == "calc":
            from ..core.safety import evaluate_range_restricted

            assert question.build is not None
            report = evaluate_range_restricted(
                question.build(), inst, strategy=strategy)
            rows = frozenset(tuple(row.items) for row in report.answer)
        else:  # pragma: no cover - inventory invariant
            raise ValueError(f"unknown question kind {question.kind!r}")
        after = (tracer.counters.get("ifp.stages", 0),
                 tracer.counters.get("pfp.stages", 0))
    stages = (after[0] - before[0]) + (after[1] - before[1])
    return QuestionAnswer(rows=rows, checksum=rows_checksum(rows),
                          stages=stages)


# ---------------------------------------------------------------------------
# Verdict stability: lint/adornment agree with the declared colors
# ---------------------------------------------------------------------------

#: Route severity order for multi-SCC programs (worst live SCC wins).
_ROUTE_ORDER = ("nonrecursive", "linear-recursive",
                "stratified-recursive", "unstratified")


def question_verdict(question: Question,
                     schema: DatabaseSchema | None = None) -> str:
    """The analyzer-derived color of a question, recomputed from the
    lint passes — GREEN/YELLOW/RED exactly when the program analyzer's
    routing verdict (Datalog) or the CPX001 complexity bound (CALC)
    lands on the matching tier.  The tests assert this equals the
    declared :attr:`Question.verdict` for every inventory entry."""
    schema = schema or supply_chain_schema()
    if question.kind == "datalog":
        from ..lint import analyze_program

        program, query = _parse_datalog(question)
        analysis = analyze_program(program, schema, query=query)
        routes = [v.route for v in analysis.routing
                  if set(v.scc) & analysis.reachable]
        worst = max(routes, key=_ROUTE_ORDER.index, default="nonrecursive")
        if worst == "nonrecursive":
            return "GREEN"
        if worst == "linear-recursive":
            return "YELLOW"
        return "RED"
    from ..lint import lint_query

    assert question.build is not None
    report = lint_query(question.build(), schema)
    verdicts = [d for d in report.diagnostics if d.code == "CPX001"]
    if not verdicts:
        return "RED"  # not range-restricted: no tractability guarantee
    message = verdicts[0].message
    if "LOGSPACE" in message:
        return "GREEN"
    if "PTIME" in message:
        return "YELLOW"
    return "RED"


# ---------------------------------------------------------------------------
# Committed goldens
# ---------------------------------------------------------------------------

#: Schema stamp of the committed golden document.
GOLDEN_SCHEMA = 1
#: The pinned generator seed the goldens were computed at.
GOLDEN_SEED = 0
#: The pinned scales the goldens cover.
GOLDEN_SCALES = (1, 4)
#: Where the committed goldens live (next to this module).
GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "supply_chain_golden.json")


def _golden_scale(inst: Instance, scale: int) -> dict:
    from ..obs import instance_checksum

    questions = {}
    for question in QUESTIONS:
        answer = answer_question(question, inst)
        questions[question.name] = {
            "rows": len(answer.rows),
            "checksum": answer.checksum,
            "stages": answer.stages if question.recursive else None,
            "verdict": question.verdict,
        }
    return {
        "instance_checksum": instance_checksum(inst),
        "relation_rows": {name: len(inst.relation(name))
                          for name in inst.schema.relation_names},
        "questions": questions,
    }


def write_golden(path: str = GOLDEN_PATH,
                 scales: tuple[int, ...] = GOLDEN_SCALES,
                 seed: int = GOLDEN_SEED) -> dict:
    """Recompute and write the golden document (seminaive lane).

    Run only when the generator or the inventory deliberately changes;
    the conformance tests then hold every other lane to these numbers.
    """
    document = {
        "schema": GOLDEN_SCHEMA,
        "seed": seed,
        "scales": {
            str(scale): _golden_scale(supply_chain_instance(scale, seed),
                                      scale)
            for scale in scales
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def load_golden(path: str = GOLDEN_PATH) -> dict:
    """Load the committed golden document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden schema {document.get('schema')!r} != {GOLDEN_SCHEMA}")
    return document


def iter_golden_questions(
        document: Mapping) -> Iterator[tuple[int, Question, dict]]:
    """Yield ``(scale, question, expected)`` triples from a golden doc."""
    for scale_text, payload in sorted(document["scales"].items(),
                                      key=lambda kv: int(kv[0])):
        for name, expected in sorted(payload["questions"].items()):
            yield int(scale_text), question_by_name(name), expected
