#!/usr/bin/env python3
"""Chart-search benchmark: one command per workload, seeded, one JSON line out.

Usage (from the repository root)::

    python3 chartbench/run.py --workload ingest_subscribe_1k --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with the layer wrappers of
:mod:`chartbench.layers` installed for its second half and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the result object; the lines before it
are a readable report, and ``chartbench/.work/results/`` keeps the full
record (provenance, notes, spans).  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

# One BLAS thread per process, set before numpy loads (the server process
# inherits it), so that http_mixed_1k's client and server keep to the host's
# two cores: OpenBLAS starts one thread per core in each process, and idle
# BLAS threads spin.  In three interleaved pairs of runs on a 2-core host the
# HTTP query median read 26.7-27.8 ms with one thread, 28.2-31.5 ms without.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from chartbench import common  # noqa: E402

WORKLOADS = ("search_10k", "http_mixed_1k", "ingest_subscribe_1k")


def _runner(name: str):
    if name == "http_mixed_1k":
        from chartbench.http_load import run_http_1k

        return run_http_1k
    from chartbench import inproc

    return {"search_10k": inproc.run_search_10k,
            "ingest_subscribe_1k": inproc.run_ingest_1k}[name]


def metric_units(trace: bool) -> dict:
    """``name -> unit`` of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        common.add_repo_paths()
        units = metric_units(trace)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"chartbench: cannot run here: {exc}", file=sys.stderr)
        return 2

    try:
        outcome = _runner(args.workload)(args.seed, args.seconds, trace)
    except Exception:  # report and fail the run; never print a result
        traceback.print_exc()
        return 1

    metrics = {}
    for name, unit in units.items():
        value = outcome.metrics.get(name)
        if value is None or not math.isfinite(value):
            outcome.fail(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": float(value), "unit": unit}

    stamp = common.provenance(args.seed, {
        "workload": args.workload, "seconds": args.seconds, "trace": trace,
    })
    spans = outcome.notes.pop("spans", None)
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    record = {"provenance": stamp, "metrics": metrics, "notes": outcome.notes,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={int(trace)} "
          f"git_rev={stamp['git_rev']} os_cpu_count={stamp['os_cpu_count']} "
          f"dtype={stamp['dtype']}")
    for key, value in outcome.notes.items():
        print(f"#   {key}: {value}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(f"error_ratio {outcome.failed}/{max(outcome.attempted, 1)}")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
