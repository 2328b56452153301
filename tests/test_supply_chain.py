"""The supply-chain workload pack (PR 10): golden conformance + generator
properties.

Two halves:

* **Golden conformance** — the committed ``supply_chain_golden.json``
  pins, at seed 0 and scales 1 and 4, the instance checksum, every
  relation's row count, and every inventory question's answer (row
  count, order-independent checksum, fixpoint stage count for the
  recursive questions).  Every engine lane is held to those numbers:
  naive, semi-naive and interned for ``.dl`` questions, naive and
  semi-naive for CALC questions (the interned kernel is Datalog-only).
  The expensive scale-4 CALC sweep carries ``-m slow`` (the
  deep-differential CI lane).
* **Generator properties** (hypothesis) — same seed ⇒ byte-identical
  instance checksum, documented row formulas, BOM acyclicity with the
  exact ``102 * scale`` closure size, schema conformance of the nested
  values, and Assembly/BOM consistency.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import instance_checksum
from repro.objects import Atom, CSet
from repro.workloads import (
    GOLDEN_SCALES,
    GOLDEN_SEED,
    QUESTIONS,
    SCALES,
    answer_question,
    bom_closure_rows,
    load_golden,
    question_by_name,
    question_verdict,
    supply_chain_instance,
    supply_chain_rows,
)

GOLDEN = load_golden()

#: lane id -> (engine strategy, intern flag)
LANES = {
    "naive": ("naive", False),
    "seminaive": ("seminaive", False),
    "interned": ("seminaive", True),
}
#: The lanes CALC questions run on (``intern`` applies to .dl only).
CALC_LANES = ("naive", "seminaive")

PROPS = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def instances():
    """The pinned golden instances, built once per module."""
    return {scale: supply_chain_instance(scale, GOLDEN_SEED)
            for scale in GOLDEN_SCALES}


def _lane_questions(lane, kind=None):
    """The inventory questions ``lane`` answers, optionally of one kind."""
    return [question for question in QUESTIONS
            if (question.kind == "datalog" or lane in CALC_LANES)
            and kind in (None, question.kind)]


def _assert_question_matches(question, inst, expected, strategy, intern):
    answer = answer_question(question, inst, strategy=strategy,
                             intern=intern)
    assert len(answer.rows) == expected["rows"], question.name
    assert answer.checksum == expected["checksum"], question.name
    if question.recursive:
        assert answer.stages == expected["stages"], question.name
    assert question.verdict == expected["verdict"], question.name


# ---------------------------------------------------------------------------
# Golden conformance
# ---------------------------------------------------------------------------

class TestGoldenDocument:
    def test_metadata(self):
        assert GOLDEN["seed"] == GOLDEN_SEED
        assert sorted(int(s) for s in GOLDEN["scales"]) == \
            sorted(GOLDEN_SCALES)

    def test_covers_whole_inventory(self):
        names = {question.name for question in QUESTIONS}
        for payload in GOLDEN["scales"].values():
            assert set(payload["questions"]) == names

    @pytest.mark.parametrize("scale", GOLDEN_SCALES)
    def test_instance_checksum_and_row_formulas(self, instances, scale):
        inst = instances[scale]
        payload = GOLDEN["scales"][str(scale)]
        assert instance_checksum(inst) == payload["instance_checksum"]
        formulas = supply_chain_rows(scale)
        for name in inst.schema.relation_names:
            assert len(inst.relation(name)) == formulas[name]
            assert payload["relation_rows"][name] == formulas[name]


class TestGoldenConformance:
    @pytest.mark.parametrize("lane", sorted(LANES))
    def test_scale1_every_question(self, instances, lane):
        strategy, intern = LANES[lane]
        payload = GOLDEN["scales"]["1"]
        for question in _lane_questions(lane):
            _assert_question_matches(
                question, instances[1], payload["questions"][question.name],
                strategy, intern)

    @pytest.mark.parametrize("lane", sorted(LANES))
    def test_scale4_datalog_questions(self, instances, lane):
        strategy, intern = LANES[lane]
        payload = GOLDEN["scales"]["4"]
        for question in _lane_questions(lane, "datalog"):
            _assert_question_matches(
                question, instances[4], payload["questions"][question.name],
                strategy, intern)

    @pytest.mark.slow
    @pytest.mark.parametrize("lane", CALC_LANES)
    def test_scale4_calc_questions(self, instances, lane):
        strategy, intern = LANES[lane]
        payload = GOLDEN["scales"]["4"]
        for question in _lane_questions(lane, "calc"):
            _assert_question_matches(
                question, instances[4], payload["questions"][question.name],
                strategy, intern)

    def test_bom_stage_pins_are_scale_independent(self):
        """The depth-3 ternary blocks pin the BOM fixpoints' stage
        counts regardless of scale — the committed goldens agree."""
        for name in ("bom-closure", "bom-explosion-apex",
                     "where-used-leaf", "calc-bom-tc"):
            stages = {payload["questions"][name]["stages"]
                      for payload in GOLDEN["scales"].values()}
            assert len(stages) == 1, name


class TestInventoryShape:
    def test_size_and_uniqueness(self):
        assert len(QUESTIONS) == 30
        assert len({question.name for question in QUESTIONS}) == 30

    def test_covers_both_kinds_and_all_colors(self):
        kinds = {question.kind for question in QUESTIONS}
        verdicts = {question.verdict for question in QUESTIONS}
        assert kinds == {"datalog", "calc"}
        assert verdicts == {"GREEN", "YELLOW", "RED"}
        yellows = [q for q in QUESTIONS if q.verdict == "YELLOW"]
        assert len(yellows) >= 8  # recursion is the point of the pack

    def test_verdicts_stable_under_analysis(self):
        """Every declared color equals what the lint/adornment passes
        derive from the question's program or query — the routing
        verdicts are facts, not annotations."""
        for question in QUESTIONS:
            assert question_verdict(question) == question.verdict, \
                question.name

    def test_question_by_name_rejects_unknown(self):
        with pytest.raises(KeyError):
            question_by_name("nonexistent-question")


# ---------------------------------------------------------------------------
# Generator properties
# ---------------------------------------------------------------------------

class TestGeneratorProperties:
    @PROPS
    @given(scale=st.integers(1, 3), seed=st.integers(0, 50))
    def test_same_seed_means_identical_checksum(self, scale, seed):
        first = instance_checksum(supply_chain_instance(scale, seed))
        second = instance_checksum(supply_chain_instance(scale, seed))
        assert first == second

    def test_distinct_seeds_distinct_instances(self):
        checksums = {instance_checksum(supply_chain_instance(1, seed))
                     for seed in range(8)}
        assert len(checksums) == 8

    @PROPS
    @given(scale=st.integers(1, 3), seed=st.integers(0, 50))
    def test_row_formulas(self, scale, seed):
        inst = supply_chain_instance(scale, seed)
        formulas = supply_chain_rows(scale)
        for name in inst.schema.relation_names:
            assert len(inst.relation(name)) == formulas[name], name

    @PROPS
    @given(scale=st.integers(1, 2), seed=st.integers(0, 50))
    def test_bom_acyclic_with_exact_closure(self, scale, seed):
        inst = supply_chain_instance(scale, seed)
        edges = {(parent, child)
                 for parent, child in inst.relation("BOM")}
        closure = set(edges)
        while True:
            grown = closure | {(a, d) for a, b in closure
                               for c, d in edges if b == c}
            if grown == closure:
                break
            closure = grown
        assert not any(a == b for a, b in closure)  # acyclic
        assert len(closure) == bom_closure_rows(scale)

    @PROPS
    @given(scale=st.integers(1, 2), seed=st.integers(0, 50))
    def test_nested_values_conform(self, scale, seed):
        inst = supply_chain_instance(scale, seed)
        parts = {part for part, _ in inst.relation("Part")}
        for part, certs in inst.relation("PartCert"):
            assert isinstance(certs, CSet)
            assert all(isinstance(cert, Atom) for cert in certs)
        bom_children: dict[Atom, set[Atom]] = {}
        for parent, child in inst.relation("BOM"):
            bom_children.setdefault(parent, set()).add(child)
        for assembly, components in inst.relation("Assembly"):
            assert isinstance(components, CSet)
            assert set(components) == bom_children[assembly]
            assert set(components) <= parts

    @pytest.mark.parametrize("scale", [1, 2, 5])
    def test_named_entities_exist_at_every_scale(self, scale):
        inst = supply_chain_instance(scale)
        assert Atom("p000000") in {p for p, _ in inst.relation("Part")}
        assert Atom("s0000") in {s for s, _ in inst.relation("Supplier")}
        assert Atom("c00000") in {c for c, _ in inst.relation("Customer")}

    def test_scale_bounds_enforced(self):
        with pytest.raises(ValueError):
            supply_chain_instance(0)
        with pytest.raises(ValueError):
            supply_chain_instance(2000)
        with pytest.raises(ValueError):
            supply_chain_rows(0)

    def test_named_scales(self):
        assert SCALES["tiny"] == 1
        total = sum(supply_chain_rows(SCALES["large"]).values())
        assert total >= 100_000  # the ROADMAP item 4 floor
