"""One benchmark run of one workload (see ``run.py`` for the command).

Layout of a run: set up the instance (timed), check the oracle and the
lane against the committed goldens and the stream against itself (not
timed), then answer the seeded stream for ``--seconds``.  Set-up
repetitions and side writes are interleaved with the stream (see
:class:`Spread`).  With ``--trace 1`` the run answers half the time
untraced, then replays the same steps traced (:func:`traced_pass`).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import oracle
from layers import Recorder, instrument
from questions import (
    ORDER_READS,
    POINT_CONSTANTS,
    POINT_DRAWS,
    QuestionStream,
    WriteStream,
    entity_pools,
    stream_digest,
    templates as make_templates,
)
from reference import REFERENCE_MS, Speed
from repro.core.parser import parse_query
from repro.core.safety import evaluate_range_restricted
from repro.datalog import evaluate_inflationary, parse_program
from repro.lint import analyze_program, lint_query
from repro.objects.instance import Instance
from repro.objects.io import instance_from_json, instance_to_json
from repro.objects.values import Atom
from repro.obs import NullTracer, Tracer, get_tracer, rows_checksum, use_tracer
from repro.workloads.supply_chain import (
    GOLDEN_SEED,
    bom_closure_rows,
    load_golden,
    supply_chain_instance,
    supply_chain_rows,
)


@dataclass(frozen=True)
class Workload:
    scale: int
    kind: str  # "datalog" | "calc"
    intern: bool
    orders: bool = False  # interleave Order write batches with reads
    point_draws: int = POINT_DRAWS  # see questions.QuestionStream


# Why each workload was chosen is recorded in BENCHMARK.json.  A run
# holds about 20 s of questions, and answer_p90_ms wants ten answers
# above it, so a round should take a few seconds at most.
WORKLOADS = {
    # Per-question fixed costs in objects.* (interning, Instance.atoms).
    "dl-interned": Workload(32, "datalog", intern=True),
    # Object-level joins; nothing is interned.
    "dl-default": Workload(8, "datalog", intern=False),
    # The range-restricted calculus evaluator; the Datalog lanes skip it.
    # At scale 2 a round takes 8 s, and the 2 or 3 rounds a run holds
    # leave p90 to 2 samples of one question (run-to-run spread 0.20).
    "calc-rr": Workload(1, "calc", intern=False),
    # Writes beside reads: every write makes a new instance.  Every read
    # costs about the same (interning dominates), so the point question
    # is not repeated and the slowest read fills a third of the samples.
    "order-stream": Workload(32, "datalog", intern=True, orders=True,
                             point_draws=1),
}

#: Generator seed of the instance.  The workload seed draws the question
#: stream and the write batches, not the data: the cost of a question at
#: the tail depends on the data (``reach-exposed-customers`` moves by 20%
#: between generator seeds), and that would hide a change of 20% behind
#: the choice of seed.
INSTANCE_SEED = 0
#: Setup repetitions; ``setup_s`` is their median.
SETUP_REPS = 6
#: Write batches timed on the workloads that do not interleave writes.
SIDE_WRITES = 20
#: Slack for the traced run's per-question sum check: self times must
#: cover the wall time within this share, or within ``SUM_SLACK_S``
#: (the benchmark's own few statements between spans).
SUM_TOLERANCE = 0.05
SUM_SLACK_S = 50e-6


class BenchError(Exception):
    """A check the benchmark makes on itself or its inputs failed."""


# ---------------------------------------------------------------------------
# The user's path: parse -> lint verdict -> evaluate -> checksum
# ---------------------------------------------------------------------------

def lint_datalog(program, schema, query) -> str:
    """The routing verdict of the program analyzer, as a traffic light."""
    analysis = analyze_program(program, schema, query=query)
    routes = {v.route for v in analysis.routing
              if set(v.scc) & analysis.reachable}
    if routes <= {"nonrecursive"}:
        return "GREEN"
    if routes <= {"nonrecursive", "linear-recursive"}:
        return "YELLOW"
    return "RED"


def lint_calc(query, schema) -> str:
    """The CPX001 complexity bound of the query linter, as a light."""
    report = lint_query(query, schema)
    bounds = [d.message for d in report.diagnostics if d.code == "CPX001"]
    if not bounds:
        return "RED"
    if "LOGSPACE" in bounds[0]:
        return "GREEN"
    return "YELLOW" if "PTIME" in bounds[0] else "RED"


def collect_datalog(result, predicate) -> frozenset:
    return frozenset(tuple(row) for row in result[predicate])


def collect_calc(report) -> frozenset:
    return frozenset(tuple(row.items) for row in report.answer)


def library_api() -> SimpleNamespace:
    """The calls one question makes, as the user would make them."""
    return SimpleNamespace(
        parse_program=parse_program, parse_query=parse_query,
        lint_datalog=lint_datalog, lint_calc=lint_calc,
        evaluate_inflationary=evaluate_inflationary,
        evaluate_range_restricted=evaluate_range_restricted,
        collect_datalog=collect_datalog, collect_calc=collect_calc,
        rows_checksum=rows_checksum, with_relation=Instance.with_relation)


#: Layer of each API call in the traced run (the inclusive time of
#: ``evaluate_inflationary`` is also kept, as ``datalog.eval``).
API_LAYERS = {
    "parse_program": "datalog.parser",
    "parse_query": "core.parser",
    "lint_datalog": "lint",
    "lint_calc": "lint",
    "evaluate_inflationary": "datalog.engine",
    "evaluate_range_restricted": "core.safety",
    "collect_datalog": "bench",
    "collect_calc": "bench",
    "rows_checksum": "obs.ledger",
    "with_relation": "instance.update",
}


def traced_api(recorder) -> SimpleNamespace:
    api = library_api()
    return SimpleNamespace(**{
        name: recorder.wrap(API_LAYERS[name], fn,
                            "datalog.eval" if name == "evaluate_inflationary"
                            else None)
        for name, fn in vars(api).items()})


def answer(api, item, inst, intern: bool):
    """One question: ``(rows, checksum, verdict)``."""
    if item.kind == "datalog":
        program, query = api.parse_program(item.text)
        verdict = api.lint_datalog(program, inst.schema, query)
        result = api.evaluate_inflationary(program, inst, intern=intern)
        rows = api.collect_datalog(result, query.predicate)
    else:
        query = api.parse_query(item.text)
        verdict = api.lint_calc(query, inst.schema)
        report = api.evaluate_range_restricted(query, inst)
        rows = api.collect_calc(report)
    return rows, api.rows_checksum(rows), verdict


# ---------------------------------------------------------------------------
# Setup, self-checks and golden replay (all before timing)
# ---------------------------------------------------------------------------

class Setup:
    """Generate the instance, then round-trip it through its JSON form;
    each :meth:`rep` is timed on its own and ``setup_s`` is their median.
    Times are kept scaled to the reference speed; ``raw_total`` keeps
    the measured totals.
    """

    def __init__(self, scale: int, seed: int, speed: Speed):
        self.scale = scale
        self.seed = seed
        self.speed = speed
        self.times: dict[str, list[float]] = {
            "generate": [], "dump": [], "load": [], "total": []}
        self.raw_total: list[float] = []
        self.json_bytes = 0

    def rep(self):
        """One timed setup; returns ``(generated, loaded)``."""
        (generated, loaded, text, marks), scale = self.speed.bracket(
            self._build)
        for key, start, end in (("generate", 0, 1), ("dump", 1, 2),
                                ("load", 2, 3), ("total", 0, 3)):
            self.times[key].append((marks[end] - marks[start]) * scale)
        self.raw_total.append(marks[3] - marks[0])
        self.json_bytes = len(text.encode("utf-8"))
        if loaded != generated:
            raise BenchError("JSON round trip changed the instance")
        expected = supply_chain_rows(self.scale)
        actual = {name: len(loaded.relation(name)) for name in expected}
        if actual != expected:
            raise BenchError(f"row counts {actual} != closed form {expected}")
        return generated, loaded

    def _build(self):
        marks = [time.perf_counter()]
        generated = supply_chain_instance(self.scale, self.seed)
        marks.append(time.perf_counter())
        text = json.dumps(instance_to_json(generated))
        marks.append(time.perf_counter())
        loaded = instance_from_json(json.loads(text))
        marks.append(time.perf_counter())
        return generated, loaded, text, marks

    def median(self, key: str) -> float:
        return statistics.median(self.times[key])


def check_oracle(templates) -> list[str]:
    """Hold the oracle and the checksum to the committed goldens."""
    problems = []
    golden = load_golden()
    for scale_text, payload in sorted(golden["scales"].items()):
        scale = int(scale_text)
        truth = oracle.Oracle(supply_chain_instance(scale, GOLDEN_SEED))
        if len(truth.bom_tc()) != bom_closure_rows(scale):
            problems.append(f"oracle BOM closure at scale {scale}")
        for template in templates:
            expected = payload["questions"][template.name]
            rows = truth.answer(template.name,
                                _default_constant(template.name))
            if (oracle.checksum(rows) != expected["checksum"]
                    or len(rows) != expected["rows"]):
                problems.append(f"oracle {template.name} at scale {scale}")
    return problems


def _default_constant(name: str) -> str | None:
    """The constant the committed inventory text asks about."""
    entry = POINT_CONSTANTS.get(name)
    return entry[0] if entry else None


def replay_goldens(workload: Workload, templates) -> list[str]:
    """Answer the committed golden questions on the lane being timed.

    CALC questions replay at scale 1 only: at scale 4 the calculus
    evaluator needs minutes for ``calc-bom-tc`` alone.
    """
    api = library_api()
    problems = []
    for scale_text, payload in sorted(load_golden()["scales"].items()):
        scale = int(scale_text)
        if workload.kind == "calc" and scale > 1:
            continue
        inst = supply_chain_instance(scale, GOLDEN_SEED)
        for template in templates:
            expected = payload["questions"][template.name]
            rows, checksum, verdict = answer(
                api, template.instantiate(None), inst, workload.intern)
            if (checksum != expected["checksum"]
                    or len(rows) != expected["rows"]
                    or verdict != expected["verdict"]):
                problems.append(f"golden {template.name} at scale {scale}")
    return problems


def check_stream(name: str, seed: int, templates, pools) -> list[str]:
    """Same seed, same bytes; another seed, other constants."""
    def digest(s):
        return stream_digest(QuestionStream(
            name, s, templates, pools, WORKLOADS[name].point_draws), 3)

    first = digest(seed)
    problems = []
    if digest(seed) != first:
        problems.append("stream is not reproducible")
    if digest(seed + 1) == first:
        problems.append("another seed drew the same stream")
    return problems


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

class Runner:
    """Answers steps against a current instance, checks each answer and
    keeps the samples: ``answer_s`` and ``write_s`` scaled to the
    reference speed, ``raw_answer_s`` and ``raw_write_s`` as measured."""

    def __init__(self, workload: Workload, generated, loaded, api,
                 speed: Speed, recorder=None):
        self.workload = workload
        self.speed = speed
        self.generated = generated
        self.loaded = loaded
        self.inst = loaded
        self.truth = oracle.Oracle(generated)
        self.api = api
        self.recorder = recorder
        self.expected: dict = {}
        self.trace = None if recorder is None else TraceTotals()
        self.answer_s: list[float] = []
        self.write_s: list[float] = []
        self.raw_answer_s: list[float] = []
        self.raw_write_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds: list[list] = []  # the (batch | None, item) steps run

    def begin_round(self) -> None:
        """Start a round.  On ``order-stream`` each round writes onto the
        loaded instance afresh, so the size written to, and with it the
        cost of a write, does not grow with the number of rounds a run
        holds."""
        self.rounds.append([])
        if self.workload.orders and self.inst is not self.loaded:
            self.inst = self.loaded
            self.truth = oracle.Oracle(self.generated)
            self.expected.clear()

    def write(self, batch) -> None:
        """Append a batch of Order rows.  On ``order-stream`` the new
        instance replaces the current one; elsewhere the batch is only
        timed against the workload's instance."""
        rows = [*self.inst.relation("Order").tuples,
                *(tuple(Atom(label) for label in row) for row in batch)]
        coerced = self.recorder.coerced_rows if self.recorder else 0

        def timed():
            start = time.perf_counter()
            updated = self.api.with_relation(self.inst, "Order", rows)
            return updated, time.perf_counter() - start

        (updated, wall), scale = self.speed.bracket(timed)
        self.raw_write_s.append(wall)
        self.write_s.append(wall * scale)
        if self.recorder:
            self.trace.coerced += self.recorder.coerced_rows - coerced
            self.trace.inserted += len(batch)
        if len(updated.relation("Order")) != len(rows):
            raise BenchError("write batch lost rows")
        if self.workload.orders:
            self.inst = updated
            self.truth.add_orders(batch)
            self.expected.clear()

    def ask(self, item) -> None:
        self.attempted += 1
        try:
            (rows, checksum, verdict, wall), scale = self.speed.bracket(
                lambda: self._answer(item))
        except Exception:  # a failed question is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        key = (item.template, item.constant)
        if key not in self.expected:
            self.expected[key] = self.truth.answer(*key)
        expected = self.expected[key]
        if (rows != expected or checksum != oracle.checksum(expected)
                or verdict != item.verdict):
            self.failed += 1
            print(f"wrong answer: {item.template} ({item.constant}): "
                  f"{len(rows)} rows, verdict {verdict}; expected "
                  f"{len(expected)} rows, verdict {item.verdict}",
                  file=sys.stderr)
            return
        self.raw_answer_s.append(wall)
        self.answer_s.append(wall * scale)

    def _answer(self, item):
        """One timed question: ``(rows, checksum, verdict, wall)``."""
        if self.recorder is None:
            if not isinstance(get_tracer(), NullTracer):
                raise BenchError("a live tracer is on the timed path")
            start = time.perf_counter()
            rows, checksum, verdict = answer(
                self.api, item, self.inst, self.workload.intern)
            return rows, checksum, verdict, time.perf_counter() - start
        tracer = Tracer()
        with use_tracer(tracer):
            before = self.recorder.attributed()
            start = time.perf_counter()
            rows, checksum, verdict = answer(
                self.api, item, self.inst, self.workload.intern)
            wall = time.perf_counter() - start
            attributed = self.recorder.attributed() - before
        self.trace.add(item, self.inst, wall, attributed, tracer,
                       self.recorder, len(rows))
        return rows, checksum, verdict, wall

    def step(self, batch, item) -> None:
        self.rounds[-1].append((batch, item))
        if batch is not None:
            self.write(batch)
        self.ask(item)


class Spread:
    """Runs each task a fixed number of times, due at even intervals
    over the measured run, between questions.

    Setup repetitions and side writes are short; timed back to back
    they would all land in one phase of the machine's load, while the
    questions they are compared with are spread over the whole run.
    """

    def __init__(self, seconds: float, tasks: list[tuple[int, object]]):
        self.due = sorted((i * seconds / count, k, i)
                          for k, (count, _) in enumerate(tasks)
                          for i in range(count))
        self.tasks = [task for _, task in tasks]

    def poll(self, elapsed: float) -> None:
        while self.due and self.due[0][0] <= elapsed:
            _, k, _ = self.due.pop(0)
            self.tasks[k]()

    def finish(self) -> None:
        self.poll(float("inf"))


def stream_rounds(name: str, workload: Workload, seed: int, templates,
                  pools):
    """Rounds of ``(batch | None, item)`` steps."""
    questions = QuestionStream(name, seed, templates, pools,
                               workload.point_draws)
    writes = WriteStream(name, seed, workload.scale, pools)
    for items in questions.rounds():
        yield [(writes.batch() if workload.orders else None, item)
               for item in items]


def measure(runner: Runner, rounds, seconds: float, spread: Spread,
            whole_rounds: bool = True) -> None:
    """Answer the stream for about ``seconds``.

    With ``whole_rounds`` the run ends at the round boundary nearest to
    ``seconds`` (at least one round), so every run holds the same
    template mix; otherwise it ends at the first question past it.
    """
    start = time.perf_counter()
    for done, steps in enumerate(rounds, start=1):
        runner.begin_round()
        for batch, item in steps:
            runner.step(batch, item)
            elapsed = time.perf_counter() - start
            spread.poll(elapsed)
            if not whole_rounds and elapsed >= seconds:
                spread.finish()
                return
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            break
    spread.finish()


# ---------------------------------------------------------------------------
# Traced-run accounting
# ---------------------------------------------------------------------------

class TraceTotals:
    """Sums over the questions of a traced pass."""

    def __init__(self) -> None:
        self.questions = 0
        self.wall = 0.0
        self.attributed = 0.0
        self.worst_gap = 0.0
        self.unbalanced = 0
        self.counters: dict[str, float] = {}
        self.mentioned_rows = 0
        self.interned_rows = 0
        self.answer_rows_calc = 0
        self.coerced = 0
        self.inserted = 0
        self._interns = 0  # intern calls seen so far

    def add(self, item, inst, wall, attributed, tracer, recorder,
            n_rows) -> None:
        self.questions += 1
        self.wall += wall
        self.attributed += attributed
        gap = abs(wall - attributed)
        self.worst_gap = max(self.worst_gap, gap / wall)
        if gap > max(SUM_TOLERANCE * wall, SUM_SLACK_S):
            self.unbalanced += 1
        for name, value in tracer.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        interns = recorder.calls["objects.intern"] - self._interns
        self._interns = recorder.calls["objects.intern"]
        self.interned_rows += interns * inst.cardinality
        if interns and item.kind == "datalog":
            self.mentioned_rows += sum(
                len(inst.relation(name)) for name in _edb_relations(item))
        if item.kind == "calc":
            self.answer_rows_calc += n_rows


def _edb_relations(item) -> set[str]:
    """Relations the question's program reads."""
    program, _ = parse_program(item.text)
    return {literal.predicate for rule in program.rules
            for literal in rule.body
            if getattr(literal, "predicate", None) is not None
            and literal.predicate not in program.idb_types}


def layer_metrics(totals: TraceTotals, recorder, traced: Runner,
                  untraced: Runner, setup: Setup, rows: int
                  ) -> dict[str, float]:
    """Per-question means.  Times (names ending in ``s``) are scaled to
    the reference speed by the traced pass's mean kernel time; set-up
    times are already scaled."""
    n = max(totals.questions, 1)
    self_s, calls = recorder.self_s, recorder.calls
    c = totals.counters

    def per_q(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "workloads.generate_s": setup.median("generate"),
        "workloads.rows": rows,
        "io.load_s": setup.median("load"),
        "io.dump_s": setup.median("dump"),
        "io.json_bytes": setup.json_bytes,
        "instance.atoms_s": per_q(self_s["objects.instance"]),
        "instance.atoms_calls": per_q(calls["objects.instance"]),
        "instance.update_s": ratio(self_s["instance.update"],
                                   len(traced.write_s)),
        "instance.write_amplification": ratio(totals.coerced,
                                              totals.inserted),
        "intern.s": per_q(self_s["objects.intern"]),
        "intern.calls": per_q(calls["objects.intern"]),
        "intern.values": per_q(c.get("space.interned_values", 0)),
        "intern.useful_ratio": ratio(totals.mentioned_rows,
                                     totals.interned_rows),
        "parse.s": per_q(self_s["datalog.parser"] + self_s["core.parser"]),
        "lint.s": per_q(self_s["lint"]),
        "datalog.eval_s": per_q(recorder.total_s["datalog.eval"]),
        "datalog.self_s": per_q(self_s["datalog.engine"]),
        "datalog.rows_derived": per_q(c.get("datalog.rows_derived", 0)),
        "datalog.delta_rows": per_q(c.get("datalog.delta_rows", 0)),
        "datalog.dedup_hits": per_q(c.get("datalog.dedup_hits", 0)),
        "datalog.new_row_ratio": ratio(c.get("datalog.delta_rows", 0),
                                       c.get("datalog.rows_derived", 0)),
        "fixpoint.s": per_q(self_s["core.fixpoint"]),
        "fixpoint.stages": per_q(c.get("ifp.stages", 0)
                                 + c.get("pfp.stages", 0)),
        "index.probes": per_q(c.get("eval.index_probes", 0)),
        "index.builds": per_q(c.get("eval.index_builds", 0)),
        "index.probe_s": per_q(self_s["core.fixpoint.index"]),
        "calc.safety_s": per_q(self_s["core.safety"]),
        "calc.ranges_s": per_q(self_s["core.range_restriction"]),
        "calc.eval_s": per_q(self_s["core.evaluation"]),
        "calc.range_values": per_q(c.get("space.range_values", 0)),
        "calc.formula_checks": per_q(c.get("eval.formula_checks", 0)),
        "calc.quantifier_iterations": per_q(
            c.get("eval.quantifier_iterations", 0)),
        "calc.memo_hits": per_q(c.get("eval.satisfy_memo_hits", 0)),
        "calc.useful_ratio": ratio(totals.answer_rows_calc,
                                   c.get("eval.formula_checks", 0)),
        "decode.s": per_q(self_s["decode"]),
        "decode.rows": per_q(calls["decode"]),
        "checksum.s": per_q(self_s["obs.ledger"]),
        "bench.s": per_q(self_s["bench"]),
        "trace.question_s": per_q(totals.wall),
        # Both passes scaled per question, so a change of machine speed
        # between them does not read as overhead.
        "trace.overhead": ratio(sum(traced.answer_s),
                                sum(untraced.answer_s)) - 1.0,
        "trace.unattributed": ratio(totals.wall - totals.attributed,
                                    totals.wall),
        "trace.worst_gap": totals.worst_gap,
        "trace.instance_intern_share": ratio(
            self_s["objects.instance"] + self_s["objects.intern"],
            totals.wall),
    }
    scale = REFERENCE_MS / traced.speed.mean_ms()
    metrics = {key: value * scale
               if key.endswith(("_s", ".s")) and not key.startswith(
                   ("workloads.", "io.")) else value
               for key, value in metrics.items()}
    metrics["machine.ref_ms"] = traced.speed.mean_ms()
    return metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 declared: list[dict]) -> dict:
    """One run of one workload: the result object the CLI prints."""
    workload = WORKLOADS[name]
    templates = make_templates(
        "datalog" if workload.orders else workload.kind,
        ORDER_READS if workload.orders else None)
    unknown = {t.name for t in templates} - oracle.known_templates()
    if unknown:
        raise BenchError(f"no oracle for {sorted(unknown)}")

    speed = Speed()
    setup = Setup(workload.scale, INSTANCE_SEED, speed)
    generated, inst = setup.rep()
    pools = entity_pools(generated)
    problems = (check_oracle(templates)
                + replay_goldens(workload, templates)
                + check_stream(name, seed, templates, pools))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    base = Runner(workload, generated, inst, library_api(), speed)
    side = WriteStream(f"{name}:side", seed, workload.scale, pools)
    rounds = stream_rounds(name, workload, seed, templates, pools)
    if trace:
        # The traced run compares a prefix of the stream with itself
        # traced, so any question boundary will do; its set-up samples
        # need no spreading.
        for _ in range(SETUP_REPS - 1):
            setup.rep()
        measure(base, rounds, seconds / 2, Spread(0, []),
                whole_rounds=False)
        metrics, trace_problems = traced_pass(name, workload, base, setup,
                                              generated, inst, side)
        problems += trace_problems
    else:
        tasks = [(SETUP_REPS - 1, setup.rep)]
        if not workload.orders:
            tasks.append((SIDE_WRITES, lambda: base.write(side.batch())))
        measure(base, rounds, seconds, Spread(seconds, tasks))
        metrics = end_to_end_metrics(name, seed, workload, base, setup)

    out = {}
    for spec in declared:
        if spec["name"] not in metrics:
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": metrics[spec["name"]],
                             "unit": spec["unit"]}
    attempted, failed = base.attempted, base.failed
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": out}


def end_to_end_metrics(name, seed, workload, run: Runner, setup: Setup
                       ) -> dict[str, float]:
    """Times are scaled to the reference speed (``reference.py``); the
    summary line also gives them as measured."""
    times = run.answer_s
    if len(times) < 2:
        raise BenchError("fewer than two answers measured")

    def timings(answers, writes, setups):
        p90 = statistics.quantiles(answers, n=10)[8]
        busy = sum(answers) + (sum(writes) if workload.orders else 0)
        return {
            "setup_s": statistics.median(setups),
            "questions_per_s": len(answers) / busy,
            "answer_p50_ms": statistics.median(answers) * 1e3,
            "answer_p90_ms": p90 * 1e3,
            "update_p50_ms": statistics.median(writes) * 1e3,
        }

    metrics = timings(times, run.write_s, setup.times["total"])
    raw = timings(run.raw_answer_s, run.raw_write_s, setup.raw_total)
    above = sum(1 for t in times if t * 1e3 > metrics["answer_p90_ms"])
    print(f"{name} seed={seed}: {len(times)} answers ({above} above p90), "
          f"{len(run.write_s)} writes, {len(setup.raw_total)} setups, "
          f"failed {run.failed}/{run.attempted} "
          f"(failed_frac {run.failed / max(run.attempted, 1):.4f}); "
          f"reference kernel {run.speed.mean_ms():.3f} ms; unscaled: "
          + ", ".join(f"{key} {value:.6g}" for key, value in raw.items()))
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def traced_pass(name, workload, base: Runner, setup: Setup, generated,
                loaded, side) -> tuple[dict[str, float], list[str]]:
    """Replay the untraced run's steps with every layer call spanned."""
    recorder = Recorder()
    with instrument(recorder) as missing:
        runner = Runner(workload, generated, loaded, traced_api(recorder),
                        Speed(), recorder)
        for steps in base.rounds:
            runner.begin_round()
            for batch, item in steps:
                runner.step(batch, item)
        if not workload.orders:
            for _ in range(SIDE_WRITES):
                runner.write(side.batch())
    for attr in missing:
        print(f"trace: {attr} not found; its time stays in the calling "
              f"layer", file=sys.stderr)
    base.attempted += runner.attempted
    base.failed += runner.failed
    totals = runner.trace
    metrics = layer_metrics(totals, recorder, runner, base, setup,
                            loaded.cardinality)
    problems = []
    if totals.unbalanced:
        problems.append(
            f"{totals.unbalanced} of {totals.questions} questions: layer "
            f"self times miss the wall time by more than "
            f"{SUM_TOLERANCE:.0%}")
        print(f"check failed: {problems[-1]}", file=sys.stderr)
    share = metrics["trace.instance_intern_share"]
    print(f"{name} trace: {totals.questions} questions, overhead "
          f"{metrics['trace.overhead']:+.1%}, unattributed "
          f"{metrics['trace.unattributed']:.2%}, objects.instance + "
          f"objects.intern {share:.0%} of question time")
    if name == "dl-interned" and share <= 0.5:
        # Reported, not failed: a change that makes interning cheap is
        # meant to break this, while the sum check above stays a gate.
        print("trace: objects.instance + objects.intern no longer hold "
              "most of dl-interned's answer time", file=sys.stderr)
    return metrics, problems
