"""Benchmark: parallel suite executor speedup over the serial path.

Controlled testing of the pyxraft election suite: serial ``run_suite``
vs the parallel case executor (``repro.engine.run_suite_parallel``).
Test cases are wait-bound (scheduler timeouts, quiesce delays), so the
speedup exceeds 1x even on a single core; it is the speedup a ``mocket
test --workers N`` user actually sees.  The ``BENCH_parallel.json``
record carries the core count and the model size it was measured on.
(The checker itself is timed by ``benchmarks/pipeline``.)

The script exits non-zero on a *correctness* failure (parallel results
differing from serial) or when the 2x target is missed.

Usage::

    PYTHONPATH=src python benchmarks/parallel_bench.py [--workers 4]
        [--out BENCH_parallel.json] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.core import ControlledTester, RunnerConfig, generate_test_cases
from repro.core.testgen import reached_by
from repro.engine import run_suite_parallel
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)
from repro.tlaplus import check


def _best_of(repeats, fn):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_suite(workers: int, repeats: int) -> dict:
    spec = build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1",), name="election-bench",
    ))
    graph = check(spec).graph
    suite = generate_test_cases(graph, por=True,
                                end_states=reached_by("BecomeLeader"))
    config = XraftConfig()
    tester = ControlledTester(
        build_xraft_mapping(spec, config), graph,
        lambda: make_xraft_cluster(("n1", "n2", "n3"), config),
        RunnerConfig(match_timeout=1.0, done_timeout=1.0, quiesce_delay=0.02))
    serial_seconds, serial = _best_of(
        repeats, lambda: tester.run_suite(suite))
    parallel_seconds, parallel = _best_of(
        repeats, lambda: run_suite_parallel(tester, suite, workers=workers))
    return {
        "target": "pyxraft",
        "model": {"name": spec.name, "states": graph.num_states,
                  "edges": graph.num_edges},
        "cases": len(serial.results),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "results_identical": (
            [(r.case.case_id, r.passed) for r in serial.results] ==
            [(r.case.case_id, r.passed) for r in parallel.results]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..",
                             "BENCH_parallel.json"))
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    record = {
        "bench": "parallel_suite",
        "workers": args.workers,
        "cpu_cores": cores,
        "python": platform.python_version(),
        "suite": bench_suite(args.workers, args.repeats),
        # cases wait more than they compute: the target holds on any
        # core count
        "speedup_target": 2.0,
    }

    out_path = os.path.abspath(args.out)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    suite_rec = record["suite"]
    model = suite_rec["model"]
    print(f"cpu cores: {cores}, workers: {args.workers}")
    print(f"suite  ({suite_rec['cases']} cases over {model['name']}, "
          f"{model['states']} states): "
          f"{suite_rec['serial_seconds']}s serial, "
          f"{suite_rec['parallel_seconds']}s parallel, "
          f"{suite_rec['speedup']}x, results "
          f"{'match' if suite_rec['results_identical'] else 'DIFFER'}")
    print(f"record written to {out_path}")

    if not suite_rec["results_identical"]:
        print("FAIL: parallel suite results diverged from serial", file=sys.stderr)
        return 1
    if suite_rec["speedup"] < record["speedup_target"]:
        print(f"FAIL: speedup target {record['speedup_target']}x missed "
              f"for the suite", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
