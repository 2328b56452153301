"""Seeded streams of supply-chain questions and Order write batches.

The stream is the only input the benchmark hands the library besides the
instance: each item carries the question's text (a ``.dl`` program or a
CALC query in the textual syntax), never a pre-built AST.  Items come in
*rounds*; a round is a seeded permutation of every template of the
workload, so the template mix of a run is the same for every seed and
the percentiles compare across seeds.  Point questions get their
constant (a part, assembly, leaf, customer or supplier) drawn from the
instance, so a different seed asks about different entities.  Their
cost depends on the entity drawn (the apex of a BOM block has 39
descendants, a depth-2 assembly 3), so a round asks each point template
``POINT_DRAWS`` times by default: the cheap end of the distribution,
where the median falls, then averages over several entities instead of
one.

Randomness comes from ``random.Random`` seeded with a string, which is
deterministic across processes and ``PYTHONHASHSEED`` values: the same
seed gives a byte-identical stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Iterator

from repro.core.format import format_query
from repro.workloads.supply_chain import QUESTIONS

#: Point questions: the quoted constant in the inventory text that the
#: stream redraws, and the entity pool it is drawn from.
POINT_CONSTANTS: dict[str, tuple[str, str]] = {
    "suppliers-of-part": ("p000013", "parts"),
    "apex-components": ("p000000", "assemblies"),
    "orders-of-customer": ("c00000", "customers"),
    "bom-explosion-apex": ("p000000", "assemblies"),
    "where-used-leaf": ("p000039", "leaves"),
    "upstream-of-s0000": ("s0000", "tier1"),
    "apex-component-suppliers": ("p000000", "assemblies"),
}

#: Default draws of each point template per round.
POINT_DRAWS = 4

#: The order-dependent questions ``order-stream`` asks after each write.
ORDER_READS = ("orders-of-customer", "parts-ordered-emea",
               "reach-exposed-customers")

#: Order rows appended by one write batch.
BATCH_ROWS = 50


@dataclass(frozen=True)
class Item:
    """One question of the stream."""

    template: str
    kind: str  # "datalog" | "calc"
    verdict: str  # the inventory's declared GREEN/YELLOW/RED
    constant: str | None
    text: str


@dataclass(frozen=True)
class Template:
    name: str
    kind: str
    verdict: str
    text: str

    def instantiate(self, constant: str | None) -> Item:
        text = self.text
        if constant is not None:
            default, _ = POINT_CONSTANTS[self.name]
            text = text.replace(f"'{default}'", f"'{constant}'")
        return Item(self.name, self.kind, self.verdict, constant, text)


def templates(kind: str, names: tuple[str, ...] | None = None
              ) -> tuple[Template, ...]:
    """The inventory questions of one kind, as text templates."""
    chosen = []
    for question in QUESTIONS:
        if question.kind != kind or (names and question.name not in names):
            continue
        if kind == "datalog":
            text = question.source
        else:
            text = format_query(question.build())
        if question.name in POINT_CONSTANTS:
            default, _ = POINT_CONSTANTS[question.name]
            if f"'{default}'" not in text:
                raise ValueError(
                    f"template {question.name} lost its constant {default}")
        chosen.append(Template(question.name, kind, question.verdict, text))
    if names and len(chosen) != len(names):
        raise ValueError(f"inventory lacks some of {names}")
    return tuple(chosen)


def entity_pools(inst) -> dict[str, list[str]]:
    """Labels the point constants are drawn from, sorted for determinism."""
    def column(relation: str, index: int) -> set[str]:
        return {row.items[index].label for row in inst.relation(relation)}

    parents = column("BOM", 0)
    children = column("BOM", 1)
    tier1 = {row.items[0].label for row in inst.relation("Supplier")
             if row.items[1].label == "tier1"}
    return {
        "parts": sorted(column("Part", 0)),
        "assemblies": sorted(column("Assembly", 0)),
        "leaves": sorted(children - parents),
        "customers": sorted(column("Customer", 0)),
        "tier1": sorted(tier1),
    }


class QuestionStream:
    """Rounds of questions for one workload, seeded by ``seed``."""

    def __init__(self, workload: str, seed: int,
                 templates_: tuple[Template, ...],
                 pools: dict[str, list[str]],
                 point_draws: int = POINT_DRAWS):
        self.rng = Random(f"perfbench:{workload}:questions:{seed}")
        self.templates = templates_
        self.pools = pools
        self.point_draws = point_draws

    def draw(self, template: Template) -> Item:
        constant = None
        if template.name in POINT_CONSTANTS:
            _, pool = POINT_CONSTANTS[template.name]
            constant = self.rng.choice(self.pools[pool])
        return template.instantiate(constant)

    def round(self) -> list[Item]:
        order = [template for template in self.templates
                 for _ in range(self.point_draws
                                if template.name in POINT_CONSTANTS else 1)]
        self.rng.shuffle(order)
        return [self.draw(template) for template in order]

    def rounds(self) -> Iterator[list[Item]]:
        while True:
            yield self.round()


class WriteStream:
    """Seeded batches of new ``Order`` rows ``(order, customer, part)``.

    Order labels continue after the generator's ``100*scale`` orders, so
    every batch inserts rows the instance does not hold yet.
    """

    def __init__(self, workload: str, seed: int, scale: int,
                 pools: dict[str, list[str]]):
        self.rng = Random(f"perfbench:{workload}:writes:{seed}")
        self.next_order = 100 * scale
        self.pools = pools

    def batch(self) -> list[tuple[str, str, str]]:
        rows = []
        for _ in range(BATCH_ROWS):
            rows.append((f"o{self.next_order:06d}",
                         self.rng.choice(self.pools["customers"]),
                         self.rng.choice(self.pools["parts"])))
            self.next_order += 1
        return rows


def stream_digest(stream: QuestionStream, n_rounds: int) -> str:
    """SHA-256 over the text of the first ``n_rounds`` rounds."""
    digest = hashlib.sha256()
    for _, items in zip(range(n_rounds), stream.rounds()):
        for item in items:
            digest.update(item.text.encode("utf-8"))
            digest.update(b"\0")
    return digest.hexdigest()
