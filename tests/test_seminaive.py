"""Stage-count regressions for the delta-driven strategy (PR 3).

The semi-naive claim is quantitative, not just behavioural: on a chain
graph the delta-rewritten Datalog TC derives each closure edge exactly
once (O(n) fresh rows per stage, O(n^2) total work), where the naive
strategy re-derives the whole closure every stage (O(n^3) total).
These tests pin the exact derivation counts via the obs counters, so a
regression in the rewrite (e.g. a delta variant reading the full IDB)
shows up as a count change, not a silent slowdown.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.builder import V, eq, exists, rel
from repro.core.builder import query as build_query
from repro.core.evaluation import Evaluator, evaluate
from repro.datalog import (
    Literal,
    Program,
    Rule,
    evaluate_inflationary,
    evaluate_partial,
)
from repro.obs import Tracer, use_tracer
from repro.workloads import chain_graph, transitive_closure_query


def tc_program() -> Program:
    return Program(
        [Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
         Rule(Literal("T", ["x", "y"]),
              [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])])],
        idb_types={"T": ["U", "U"]},
    )


def _closure_size(n: int) -> int:
    return n * (n - 1) // 2


def _datalog_counters(n: int, strategy: str, intern: bool = False) -> dict:
    tracer = Tracer()
    with use_tracer(tracer):
        result = evaluate_inflationary(tc_program(), chain_graph(n),
                                       strategy=strategy, intern=intern)
    assert len(result["T"]) == _closure_size(n)
    return dict(tracer.counters)


class TestDatalogDerivationCounts:
    def test_seminaive_derives_each_row_exactly_once(self):
        """chain_graph(64): 2016 closure rows, 2016 derivations, zero
        duplicate hits — the headline guarantee of the delta rewrite."""
        counters = _datalog_counters(64, "seminaive")
        assert counters["datalog.rows_derived"] == 2016
        assert counters["datalog.delta_rows"] == 2016
        assert "datalog.dedup_hits" not in counters
        assert counters["datalog.refires_avoided"] > 0

    def test_naive_rederives_quadratically(self):
        """The naive strategy re-fires settled rows every stage: on a
        chain of n nodes it touches sum-of-closure-prefixes many rows,
        strictly more than the closure itself from n=3 on."""
        n = 16
        naive = _datalog_counters(n, "naive")
        seminaive = _datalog_counters(n, "seminaive")
        closure = _closure_size(n)
        assert seminaive["datalog.rows_derived"] == closure
        assert naive["datalog.rows_derived"] > 3 * closure
        assert naive["datalog.dedup_hits"] > 0
        # Identical stage counts: the rewrite changes work, not states.
        assert naive["ifp.stages"] == seminaive["ifp.stages"]

    def test_refires_avoided_grows_with_chain_length(self):
        small = _datalog_counters(8, "seminaive")
        large = _datalog_counters(16, "seminaive")
        assert (large["datalog.refires_avoided"]
                > small["datalog.refires_avoided"])


class TestInternedDerivationCounts:
    """PR 8's indexed kernel: same derivation discipline as the object
    semi-naive engine, but each join resolves by hash-index probe."""

    def test_interned_derives_each_row_exactly_once(self):
        counters = _datalog_counters(64, "seminaive", intern=True)
        assert counters["datalog.rows_derived"] == 2016
        assert counters["datalog.delta_rows"] == 2016
        assert "datalog.dedup_hits" not in counters

    def test_index_probes_bounded_by_closure(self):
        """chain_graph(64): the planner scans Δ::T and probes the
        (persistent) G index on its bound position, so the recursive
        rule costs exactly one probe per derived closure row — 2016
        probes against one index build.  A scanning join would touch
        ~|G| rows per delta row: 63 * 2016 = 127,008 row visits."""
        counters = _datalog_counters(64, "seminaive", intern=True)
        closure = _closure_size(64)
        assert counters["eval.index_builds"] >= 1
        assert counters["eval.index_probes"] == closure
        assert counters["eval.index_probes"] < 63 * closure

    def test_interned_matches_object_engine_counters(self):
        """Derivation/stage counters are a bijection-invariant of the
        run: identical between object and interned engines."""
        plain = _datalog_counters(16, "seminaive")
        interned = _datalog_counters(16, "seminaive", intern=True)
        for key in ("datalog.rows_derived", "datalog.delta_rows",
                    "datalog.refires_avoided", "ifp.stages"):
            assert plain[key] == interned[key], key
        assert interned["space.interned_values"] == 16

    def test_probe_count_scales_with_closure_not_product(self):
        small = _datalog_counters(16, "seminaive", intern=True)
        large = _datalog_counters(32, "seminaive", intern=True)
        assert small["eval.index_probes"] == _closure_size(16)
        assert large["eval.index_probes"] == _closure_size(32)


class TestCalcDeltaCounters:
    def _counters(self, n: int, strategy: str) -> dict:
        tracer = Tracer()
        with use_tracer(tracer):
            result = evaluate(transitive_closure_query("U"), chain_graph(n),
                              strategy=strategy)
        assert len(result) == _closure_size(n)
        return dict(tracer.counters)

    def test_delta_rows_match_closure(self):
        """Semi-naive calculus TC: every closure row enters the fixpoint
        as a delta row exactly once; settled candidates are skipped."""
        counters = self._counters(8, "seminaive")
        assert counters["eval.delta_rows"] == _closure_size(8)
        assert counters["eval.stage_skips"] > 0

    def test_naive_has_no_delta_counters(self):
        counters = self._counters(8, "naive")
        assert "eval.delta_rows" not in counters
        assert "eval.stage_skips" not in counters

    def test_stage_counts_identical(self):
        naive = self._counters(8, "naive")
        seminaive = self._counters(8, "seminaive")
        assert naive["ifp.stages"] == seminaive["ifp.stages"]
        assert naive["eval.fixpoint_stages"] == seminaive["eval.fixpoint_stages"]


class TestSatisfyMemo:
    def test_closed_subformula_memoized(self):
        """A closed subformula over EDB relations only is evaluated once
        and served from the memo for every other outer binding."""
        inst = chain_graph(4)
        x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
        q = build_query([x, y], rel("G")(x, y) & exists(z, eq(z, z)))
        evaluator = Evaluator(inst.schema, strategy="seminaive")
        evaluator.evaluate(q, inst)
        assert evaluator.last_stats["satisfy_memo_hits"] > 0

    def test_naive_never_memoizes(self):
        inst = chain_graph(4)
        x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
        q = build_query([x, y], rel("G")(x, y) & exists(z, eq(z, z)))
        evaluator = Evaluator(inst.schema, strategy="naive")
        evaluator.evaluate(q, inst)
        assert evaluator.last_stats["satisfy_memo_hits"] == 0


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("evaluate_program",
                             [evaluate_inflationary, evaluate_partial])
    @pytest.mark.parametrize("intern", [False, True])
    def test_evaluation_leaves_no_cycles(self, evaluate_program, intern):
        """An evaluation's database, interned store and EDB rows are
        freed by reference counting alone: with the cyclic collector
        off, one evaluation leaves nothing for it to collect."""
        program, inst = tc_program(), chain_graph(8)
        gc.collect()
        gc.disable()
        try:
            result = evaluate_program(program, inst, intern=intern)
            uncollected = gc.collect()
        finally:
            gc.enable()
        assert len(result["T"]) == _closure_size(8)
        assert uncollected == 0
