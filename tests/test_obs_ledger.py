"""The run ledger (PR 9 tentpole): append/read round-trips, identity
checksums, run resolution, aggregation, and diffing.

The central property, checked with hypothesis: any sequence of JSON-safe
records appended via :func:`append_record` reads back *verbatim* through
:func:`read_ledger` — the ledger is an exact, order-preserving journal.
Torn tails (a writer killed mid-append) are dropped silently; any other
corruption is a loud :class:`LedgerError`.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import (
    LedgerError,
    RunRecorder,
    Tracer,
    aggregate_records,
    append_record,
    default_ledger_path,
    diff_records,
    find_record,
    instance_checksum,
    peak_rss_bytes,
    query_hash,
    read_ledger,
    rows_checksum,
    use_tracer,
)
from repro.obs.ledger import LEDGER_SCHEMA, headline_counters


# ---------------------------------------------------------------------------
# Hypothesis: append/read round-trip
# ---------------------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

_field_names = st.text(alphabet="abcdefgh._", min_size=1, max_size=10)

_records = st.lists(
    st.dictionaries(_field_names, _json_scalars, max_size=5),
    max_size=8,
)


class TestRoundTrip:
    # The first st.text() draw builds hypothesis's unicode charmap, which
    # trips the too_slow health check when the .hypothesis cache is cold.
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(_records)
    def test_append_then_read_is_identity(self, field_dicts):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ledger.jsonl")
            expected = []
            for index, fields in enumerate(field_dicts):
                record = {"schema": LEDGER_SCHEMA, "id": f"run{index}"}
                record.update(fields)
                record.pop("schema", None)
                record["schema"] = LEDGER_SCHEMA  # fields cannot unseat it
                append_record(record, path)
                expected.append(record)
            if not expected:
                assert not os.path.exists(path) or \
                    read_ledger(path) == []
                return
            assert read_ledger(path) == expected

    def test_append_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "nested" / "dir" / "ledger.jsonl")
        append_record({"schema": LEDGER_SCHEMA, "id": "x"}, path)
        assert read_ledger(path) == [{"schema": LEDGER_SCHEMA, "id": "x"}]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record({"schema": LEDGER_SCHEMA, "id": "whole"}, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "id": "to')  # killed mid-append
        records = read_ledger(path)
        assert [record["id"] for record in records] == ["whole"]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record({"schema": LEDGER_SCHEMA, "id": "a"}, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        append_record({"schema": LEDGER_SCHEMA, "id": "b"}, path)
        with pytest.raises(LedgerError, match="not a JSON record"):
            read_ledger(path)

    def test_unsupported_schema_raises(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_record({"schema": 99, "id": "future"}, path)
        with pytest.raises(LedgerError, match="unsupported ledger schema"):
            read_ledger(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            read_ledger(str(tmp_path / "absent.jsonl"))


# ---------------------------------------------------------------------------
# Identity helpers
# ---------------------------------------------------------------------------

class TestIdentity:
    def test_query_hash_normalises_whitespace(self):
        assert query_hash("{[x:U] |  P(x)}") == \
            query_hash("  {[x:U]\n|\tP(x)}  ")
        assert query_hash("{[x:U] | P(x)}") != query_hash("{[x:U] | Q(x)}")
        assert len(query_hash("q")) == 12

    @given(st.lists(st.integers(), max_size=10))
    def test_rows_checksum_is_order_independent(self, rows):
        import random

        shuffled = list(rows)
        random.Random(7).shuffle(shuffled)
        assert rows_checksum(rows) == rows_checksum(shuffled)

    def test_instance_checksum_ignores_row_order(self, flat_graph_schema):
        from repro.objects import instance

        forward = instance(flat_graph_schema,
                           G=[("a", "b"), ("b", "c"), ("c", "a")])
        backward = instance(flat_graph_schema,
                            G=[("c", "a"), ("b", "c"), ("a", "b")])
        assert instance_checksum(forward) == instance_checksum(backward)
        different = instance(flat_graph_schema, G=[("a", "b")])
        assert instance_checksum(forward) != instance_checksum(different)

    def test_peak_rss_is_plausible_on_posix(self):
        rss = peak_rss_bytes()
        if rss is not None:  # non-POSIX returns None
            assert rss > 4 << 20  # a CPython process is at least a few MB

    def test_headline_counters_filters_machine_noise(self):
        counters = {"eval.steps": 3, "space.peak": 9, "ifp.stages": 2,
                    "toy.rows": 5, "wall.noise": 1}
        assert headline_counters(counters) == {
            "eval.steps": 3, "space.peak": 9, "ifp.stages": 2}


# ---------------------------------------------------------------------------
# RunRecorder
# ---------------------------------------------------------------------------

class TestRunRecorder:
    def test_record_structure_and_counter_capture(self):
        recorder = RunRecorder("query")
        recorder.note(query_hash="abc123", rows=7, skipped=None)
        tracer = Tracer()
        with use_tracer(tracer):
            tracer.count("eval.steps", 4)
            tracer.count("ifp.stages", 3)
            tracer.count("machine.noise", 1)
        recorder.attach_tracer(tracer)
        record = recorder.finish("ok")
        assert record["schema"] == LEDGER_SCHEMA
        assert record["command"] == "query"
        assert record["outcome"] == "ok"
        assert record["query_hash"] == "abc123"
        assert record["rows"] == 7
        assert "skipped" not in record  # None fields are dropped
        assert record["wall_seconds"] >= 0
        assert record["counters"] == {"eval.steps": 4, "ifp.stages": 3}
        assert record["stages"] == 3  # ifp.stages + pfp.stages
        assert len(record["id"]) == 12

    def test_noted_outcome_overrides_finish(self):
        recorder = RunRecorder("query")
        recorder.note(outcome="timeout")
        assert recorder.finish("ok")["outcome"] == "timeout"

    def test_unknown_outcome_degrades_to_error(self):
        assert RunRecorder("query").finish("exploded")["outcome"] == "error"

    def test_error_text_is_recorded(self):
        record = RunRecorder("bench").finish("error", error="boom")
        assert record["error"] == "boom"


# ---------------------------------------------------------------------------
# Resolution, aggregation, diffing
# ---------------------------------------------------------------------------

def _record(id_, **fields):
    record = {"schema": LEDGER_SCHEMA, "id": id_, "command": "query",
              "outcome": "ok", "wall_seconds": 0.002}
    record.update(fields)
    return record


class TestFindRecord:
    RECORDS = [_record("aaa111"), _record("aab222"), _record("ccc333")]

    def test_unique_prefix_resolves(self):
        assert find_record(self.RECORDS, "ccc")["id"] == "ccc333"

    def test_negative_index_resolves(self):
        assert find_record(self.RECORDS, "-1")["id"] == "ccc333"
        assert find_record(self.RECORDS, "-3")["id"] == "aaa111"

    def test_ambiguous_prefix_raises(self):
        with pytest.raises(LedgerError, match="ambiguous"):
            find_record(self.RECORDS, "aa")

    def test_unknown_id_raises(self):
        with pytest.raises(LedgerError, match="unknown run id"):
            find_record(self.RECORDS, "zzz")

    def test_out_of_range_index_raises(self):
        with pytest.raises(LedgerError, match="out of range"):
            find_record(self.RECORDS, "-4")


class TestAggregate:
    def test_groups_by_query_hash_with_drift(self):
        records = [
            _record("a1", query_hash="qh1", wall_seconds=0.010,
                    counters={"eval.steps": 5}),
            _record("a2", query_hash="qh1", wall_seconds=0.030,
                    counters={"eval.steps": 8}),
            _record("b1", command="bench", outcome="error"),
        ]
        aggregates = {entry["key"]: entry
                      for entry in aggregate_records(records)}
        group = aggregates["qh1"]
        assert group["runs"] == 2
        assert group["outcomes"] == {"ok": 2}
        assert group["drift"] == {"eval.steps": {"min": 5, "max": 8}}
        assert group["wall_ms"]["count"] == 2
        assert group["wall_ms"]["p50"] >= 1
        # Hashless records group under their command.
        assert aggregates["bench"]["outcomes"] == {"error": 1}

    def test_stable_counters_do_not_drift(self):
        records = [_record(f"r{i}", query_hash="qh",
                           counters={"eval.steps": 5}) for i in range(3)]
        assert aggregate_records(records)[0]["drift"] == {}


class TestDiff:
    def test_field_and_counter_deltas(self):
        a = _record("aaa", query_hash="qh", strategy="naive",
                    wall_seconds=0.1, rss_peak_bytes=1000,
                    counters={"eval.steps": 10, "only.a": 1})
        b = _record("bbb", query_hash="qh", strategy="seminaive",
                    wall_seconds=0.05, rss_peak_bytes=1500,
                    counters={"eval.steps": 4})
        diff = diff_records(a, b)
        assert diff["a"]["id"] == "aaa" and diff["b"]["id"] == "bbb"
        assert diff["fields"]["query_hash"]["equal"] is True
        assert diff["fields"]["strategy"]["equal"] is False
        assert diff["counters"]["eval.steps"]["delta"] == -6
        assert diff["counters"]["only.a"]["b"] is None
        assert diff["wall_seconds"]["ratio"] == 0.5
        assert diff["rss_peak_bytes"]["delta"] == 500


# ---------------------------------------------------------------------------
# CLI integration: every ledgered command leaves a well-formed record
# ---------------------------------------------------------------------------

SAFE = ("{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})]"
        "(G(x,y) or exists z:{U} (S(x,z) and G(z,y)))(x, y)}")


@pytest.fixture
def graph_file(tmp_path):
    from repro.objects import atom, cset, database_schema, dump_instance, \
        instance

    schema = database_schema(G=["{U}", "{U}"])
    a, b, c = cset(atom("a")), cset(atom("b")), cset(atom("c"))
    path = tmp_path / "graph.json"
    dump_instance(instance(schema, G=[(a, b), (b, c)]), str(path))
    return str(path)


class TestCliLedger:
    def test_query_appends_full_record(self, graph_file, tmp_path, capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        assert main(["query", graph_file, SAFE, "--ledger", ledger]) == 0
        records = read_ledger(ledger)
        assert len(records) == 1
        record = records[0]
        assert record["command"] == "query"
        assert record["outcome"] == "ok"
        assert record["query_hash"] == query_hash(SAFE)
        assert record["mode"] == "rr"
        assert record["strategy"] == "seminaive"
        assert record["rows"] == 3
        assert record["stages"] == 3
        assert record["counters"]["ifp.stages"] == 3
        assert "instance_checksum" in record

    def test_lint_records_complexity_verdict(self, graph_file, tmp_path,
                                             capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        main(["lint", graph_file, SAFE, "--ledger", ledger])
        record = read_ledger(ledger)[-1]
        assert record["command"] == "lint"
        assert record["verdict"] == "PTIME"
        assert record["query_hash"] == query_hash(SAFE)

    def test_lint_records_rejection_verdict(self, graph_file, tmp_path,
                                            capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        main(["lint", graph_file, "{[x:{U}] | not G(x, x)}",
              "--ledger", ledger])
        record = read_ledger(ledger)[-1]
        # A pure-CALC query's Theorem 5.1 bound would have been LOGSPACE.
        assert record["verdict"] == "no-LOGSPACE-guarantee"

    def test_no_ledger_suppresses_the_record(self, graph_file, tmp_path,
                                             capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        main(["query", graph_file, SAFE, "--ledger", ledger, "--no-ledger"])
        assert not os.path.exists(ledger)

    def test_empty_repro_ledger_env_disables(self, graph_file, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_LEDGER", "")
        assert default_ledger_path() is None
        assert main(["query", graph_file, SAFE]) == 0  # and writes nowhere

    def test_divergence_outcome(self, graph_file, tmp_path, capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        code = main(["query", graph_file,
                     "{[x:{U}] | pfp[S(x:{U})](not S(x))(x)}",
                     "--ledger", ledger, "--mode", "active"])
        assert code == 2
        record = read_ledger(ledger)[-1]
        assert record["outcome"] == "divergence"
        assert "cycle" in record["error"]

    def test_parse_error_outcome(self, graph_file, tmp_path, capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        assert main(["query", graph_file, "{[x:U] | G(x",
                     "--ledger", ledger]) == 2
        record = read_ledger(ledger)[-1]
        assert record["outcome"] == "error"
        assert record["error"]

    def test_records_accumulate_as_json_lines(self, graph_file, tmp_path,
                                              capsys):
        ledger = str(tmp_path / "cli-ledger.jsonl")
        for _ in range(3):
            main(["query", graph_file, SAFE, "--ledger", ledger])
        with open(ledger, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["schema"] == LEDGER_SCHEMA
                   for line in lines)
