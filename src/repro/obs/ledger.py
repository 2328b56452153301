"""The run ledger: one schema-versioned JSONL record per CLI invocation.

Every ``repro query/profile/bench/lint`` run appends a record to
``.repro/ledger.jsonl`` (override with ``--ledger PATH``, disable with
``--no-ledger`` or an empty ``REPRO_LEDGER`` environment variable)
carrying the run's natural primary key — the query hash and instance
checksum that ROADMAP item 3's result cache will be keyed by — plus the
strategy, the lint complexity verdict when available, the headline
engine counters (``eval.*``, ``space.*``, rows, stages), wall seconds,
peak RSS, and the outcome (``ok`` / ``error`` / ``timeout`` /
``divergence``).  Records from releases whose ``query``/``profile`` took
``--intern`` also carry an ``intern`` flag; :func:`diff_records` still
compares it.  History accumulates across invocations, so
``repro obs history/aggregate/diff`` can answer "what did this query
cost last week" without re-running anything.

The checksum helpers here are the shared identity layer: the bench
registry's cross-strategy agreement checksums
(:func:`rows_checksum`, factored out of the bench machinery) and the
ledger's :func:`instance_checksum` are both order- and
process-independent (``hash`` is salted per process, CRCs over sorted
reprs are not).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import zlib
from typing import TYPE_CHECKING, Any, Iterable

from .metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import Tracer

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "LedgerError",
    "RunRecorder",
    "aggregate_records",
    "append_record",
    "default_ledger_path",
    "diff_records",
    "find_record",
    "headline_counters",
    "instance_checksum",
    "peak_rss_bytes",
    "query_hash",
    "read_ledger",
    "rows_checksum",
]

#: Version stamp written into every record; bump on layout changes.
LEDGER_SCHEMA = 1

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_PATH = os.path.join(".repro", "ledger.jsonl")

#: Counter prefixes that make a record's "headline" set — the engine
#: quantities the paper's theorems are about, not machine noise.
HEADLINE_PREFIXES = ("eval.", "space.", "datalog.", "ifp.", "pfp.",
                     "algebra.", "sim.", "encoding.", "density.")

#: The outcomes a record may carry.
OUTCOMES = ("ok", "error", "timeout", "divergence")


class LedgerError(ValueError):
    """A ledger file is missing, malformed, or a run id does not resolve."""


# ---------------------------------------------------------------------------
# Identity: query hashes and order-independent checksums
# ---------------------------------------------------------------------------

def query_hash(text: str) -> str:
    """A stable 12-hex digest of a query's whitespace-normalised text —
    the first half of the (query, instance) cache key."""
    canonical = " ".join(text.split())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def rows_checksum(rows: Iterable[Any]) -> int:
    """Order- and process-independent checksum of an answer relation
    (``hash`` is salted per process, so shards and ledgers cannot use
    it).  Shared with the bench registry's cross-strategy agreement
    checks — the same quantity a result cache would key on."""
    canonical = "\n".join(sorted(repr(row) for row in rows))
    return zlib.crc32(canonical.encode("utf-8"))


def instance_checksum(inst: Any) -> int:
    """Order-independent checksum of a whole database instance: the
    per-relation :func:`rows_checksum` rolled up over sorted relation
    names — the second half of the (query, instance) cache key."""
    parts = []
    for name in sorted(inst.schema.relation_names):
        parts.append(f"{name}:{rows_checksum(inst.relation(name))}")
    return zlib.crc32("\n".join(parts).encode("utf-8"))


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size in bytes (None where
    ``resource`` is unavailable).  Shared with the sharded bench
    runner's per-point ``space.rss_peak`` telemetry."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return ru_maxrss * scale


def headline_counters(
    counters: dict[str, int | float],
) -> dict[str, int | float]:
    """The subset of a tracer's flat counters worth persisting per run."""
    return {name: value for name, value in sorted(counters.items())
            if name.startswith(HEADLINE_PREFIXES)}


def default_ledger_path() -> str | None:
    """The ledger path for this invocation: ``REPRO_LEDGER`` when set
    (an empty value disables the ledger), else ``.repro/ledger.jsonl``."""
    override = os.environ.get("REPRO_LEDGER")
    if override is not None:
        return override or None
    return DEFAULT_LEDGER_PATH


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class RunRecorder:
    """Accumulates one invocation's ledger record.

    Command handlers :meth:`note` fields as they become known (query
    hash once parsed, instance checksum once loaded, row counts once
    evaluated) and :meth:`attach_tracer` the tracer whose counters the
    record should carry; :meth:`finish` stamps outcome, wall seconds,
    and peak RSS and returns the JSON-safe record.
    """

    def __init__(self, command: str):
        self.command = command
        self.started = time.perf_counter()
        self.fields: dict[str, Any] = {}
        self.tracer: Tracer | None = None
        self.outcome: str | None = None

    def note(self, **fields: Any) -> None:
        """Record known-when-available fields; None values are skipped
        (an ``outcome`` field overrides the one ``finish`` is given)."""
        outcome = fields.pop("outcome", None)
        if outcome is not None:
            self.outcome = outcome
        self.fields.update({name: value for name, value in fields.items()
                            if value is not None})

    def attach_tracer(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def finish(self, outcome: str, error: str | None = None) -> dict[str, Any]:
        outcome = self.outcome or outcome
        if outcome not in OUTCOMES:
            outcome = "error"
        wall = time.perf_counter() - self.started
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        run_id = hashlib.sha256(
            f"{time.time_ns()}:{os.getpid()}:{self.command}".encode()
        ).hexdigest()[:12]
        record: dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "id": run_id,
            "ts": stamp,
            "command": self.command,
            "outcome": outcome,
            "wall_seconds": round(wall, 6),
        }
        rss = peak_rss_bytes()
        if rss is not None:
            record["rss_peak_bytes"] = rss
        if error:
            record["error"] = error
        record.update(self.fields)
        if self.tracer is not None:
            counters = headline_counters(self.tracer.counters)
            if counters:
                record["counters"] = counters
            stages = int(counters.get("ifp.stages", 0)
                         + counters.get("pfp.stages", 0))
            if stages and "stages" not in record:
                record["stages"] = stages
        return record


def append_record(record: dict[str, Any], path: str | None = None) -> str:
    """Append one record to the ledger (creating parent directories);
    returns the path written."""
    path = path or default_ledger_path() or DEFAULT_LEDGER_PATH
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_ledger(path: str) -> list[dict[str, Any]]:
    """All records of a ledger file, oldest first.

    A missing file, an unparseable interior line, or an unsupported
    schema raises :class:`LedgerError`; a torn final line (a writer
    killed mid-append) is dropped silently.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        raise LedgerError(f"cannot read ledger {path}: {error}") from None
    records: list[dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            if number == len(lines):
                break  # torn tail of a killed writer
            raise LedgerError(
                f"{path}:{number}: not a JSON record: {text[:60]!r}"
            ) from None
        if not isinstance(record, dict) or "schema" not in record:
            raise LedgerError(f"{path}:{number}: not a ledger record")
        if record["schema"] != LEDGER_SCHEMA:
            raise LedgerError(
                f"{path}:{number}: unsupported ledger schema "
                f"{record['schema']!r} (supported: {LEDGER_SCHEMA})")
        records.append(record)
    return records


def find_record(records: list[dict[str, Any]], token: str) -> dict[str, Any]:
    """Resolve a run reference: an ``id`` prefix, or a negative index
    like ``-1`` (the most recent record)."""
    if token.startswith("-") and token[1:].isdigit():
        index = int(token)
        if -len(records) <= index < 0:
            return records[index]
        raise LedgerError(
            f"run index {token} out of range ({len(records)} record(s))")
    matches = [record for record in records
               if str(record.get("id", "")).startswith(token)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise LedgerError(f"unknown run id {token!r}")
    raise LedgerError(
        f"run id {token!r} is ambiguous ({len(matches)} matches); "
        "give more characters")


# ---------------------------------------------------------------------------
# Aggregation and diffing
# ---------------------------------------------------------------------------

def aggregate_records(
    records: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Per-query-hash aggregates: run/outcome counts, wall-time p50/p99
    (milliseconds, via the log-bucketed :class:`Histogram`), and counter
    drift — headline counters whose value changed across the group's
    runs (for deterministic engines, drift means the query, the
    instance, or the engine changed).

    Records without a ``query_hash`` (bench sweeps, lint batches) group
    under their command name.
    """
    groups: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        key = str(record.get("query_hash") or record.get("command", "?"))
        groups.setdefault(key, []).append(record)
    aggregates: list[dict[str, Any]] = []
    for key, members in sorted(groups.items()):
        wall = Histogram()
        outcomes: dict[str, int] = {}
        counter_ranges: dict[str, tuple[float, float]] = {}
        for record in members:
            seconds = record.get("wall_seconds")
            if isinstance(seconds, (int, float)):
                wall.record(seconds * 1000.0)
            outcome = str(record.get("outcome", "?"))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            for name, value in (record.get("counters") or {}).items():
                low, high = counter_ranges.get(name, (value, value))
                counter_ranges[name] = (min(low, value), max(high, value))
        drift = {name: {"min": low, "max": high}
                 for name, (low, high) in sorted(counter_ranges.items())
                 if low != high}
        aggregates.append({
            "key": key,
            "runs": len(members),
            "outcomes": dict(sorted(outcomes.items())),
            "wall_ms": wall.summary(),
            "drift": drift,
            "commands": sorted({str(record.get("command", "?"))
                                for record in members}),
        })
    return aggregates


def diff_records(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Field-by-field comparison of two runs: identity fields side by
    side, wall/RSS deltas, and every headline counter's change."""
    scalar_fields = ("command", "outcome", "query_hash", "instance_checksum",
                     "strategy", "mode", "intern", "verdict", "rows",
                     "stages")
    fields: dict[str, Any] = {}
    for name in scalar_fields:
        left, right = a.get(name), b.get(name)
        if left is None and right is None:
            continue
        fields[name] = {"a": left, "b": right, "equal": left == right}
    counters: dict[str, Any] = {}
    names = set(a.get("counters") or {}) | set(b.get("counters") or {})
    for name in sorted(names):
        left = (a.get("counters") or {}).get(name)
        right = (b.get("counters") or {}).get(name)
        entry: dict[str, Any] = {"a": left, "b": right}
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            entry["delta"] = right - left
        counters[name] = entry
    wall_a, wall_b = a.get("wall_seconds"), b.get("wall_seconds")
    diff: dict[str, Any] = {
        "a": {"id": a.get("id"), "ts": a.get("ts")},
        "b": {"id": b.get("id"), "ts": b.get("ts")},
        "fields": fields,
        "counters": counters,
    }
    if isinstance(wall_a, (int, float)) and isinstance(wall_b, (int, float)):
        diff["wall_seconds"] = {
            "a": wall_a, "b": wall_b, "delta": round(wall_b - wall_a, 6),
            "ratio": round(wall_b / wall_a, 3) if wall_a > 0 else None,
        }
    rss_a, rss_b = a.get("rss_peak_bytes"), b.get("rss_peak_bytes")
    if isinstance(rss_a, int) and isinstance(rss_b, int):
        diff["rss_peak_bytes"] = {"a": rss_a, "b": rss_b,
                                  "delta": rss_b - rss_a}
    return diff
