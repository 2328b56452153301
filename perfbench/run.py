"""Supply-chain question benchmark.

Loads the supply-chain instance from its JSON form, then answers a
seeded stream of inventory questions the way a user does: each question
goes parse -> lint verdict -> evaluate -> ``rows_checksum``, and every
answer is checked against an independent oracle (``oracle.py``).  Run
from the repository root::

    python3 perfbench/run.py --workload dl-interned --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one thread.  ``--workload all`` runs every workload in a
process of its own (so peak RSS and warm caches do not carry over) and
prints one table row per workload.  The last line of a single-workload
run is a JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the metric names and units are the ones declared in ``BENCHMARK.json``
(``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``).

The untraced run times the library with the null tracer installed.  The
traced run (``--trace 1``) answers a prefix of the stream untraced, then
the same questions again with spans around every layer call
(``layers.py``) and a live ``repro.obs`` tracer for the engines' own
counters; it reports per-question means, the tracing overhead, and
checks that the layers' self times add up to each question's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


# ---------------------------------------------------------------------------
# Every workload, one process each
# ---------------------------------------------------------------------------

def run_all(args, spec: dict) -> int:
    """Each workload in a process of its own; one table row per workload."""
    declared = declared_metrics(spec, bool(args.trace))
    rows = []
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            print(line)
        rows.append((name, json.loads(lines[-1])))
    header = ["workload", "correct", "failed_frac [ratio]"] + [
        f"{m['name']} [{m['unit']}]" for m in declared]
    print("\t".join(header))
    for name, result in rows:
        frac = result["failed"] / result["attempted"]
        cells = [name, str(result["correct"]), f"{frac:.4f}"] + [
            f"{result['metrics'][m['name']]['value']:.6g}" for m in declared]
        print("\t".join(cells))
        if not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        *(w["name"] for w in spec["workloads"]), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the library from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import runner

    try:
        result = runner.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            declared_metrics(spec, bool(args.trace)))
    except runner.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
