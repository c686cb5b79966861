"""Benchmark: coverage-guided fuzzing must beat the unguided stream.

The paper's thesis, measured on the fuzzer: model-checking guidance
(here, fingerprint coverage of the canonical graph feeding seed
selection and mutation) should explore strictly more of the verified
state space than the same budget of schedules drawn blindly from the
seeded planner.  Both arms run the real ``raftkv`` cluster through the
real :class:`~repro.faults.runner.FaultRunner` — same graph, same base
cases, same budget, same runner timeouts — and differ only in whether
coverage feedback is on.

Writes a ``BENCH_fuzz.json`` record with both coverage trajectories
(distinct states/edges after every run) and exits non-zero when the
gates fail:

* **correctness** — every run of both arms completes and no divergence
  goes unattributed (clean raftkv must pass under transparent chaos),
* **guidance** — the guided arm finishes with strictly more distinct
  verified states + edges than the unguided arm.

Usage::

    PYTHONPATH=src python benchmarks/fuzz_bench.py
        [--out BENCH_fuzz.json] [--budget 12] [--cases 4]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core import generate_test_cases
from repro.engine import canonicalize
from repro.fuzz import fuzz_campaign
from repro.systems.catalog import kit
from repro.tlaplus import check


def run_arm(bed, guided: bool, budget: int) -> dict:
    mapping, cluster_factory, graph, suite = bed
    started = time.perf_counter()
    result = fuzz_campaign(
        graph, suite, mapping, cluster_factory,
        cluster_factory().node_ids,
        budget=budget, fuzz_seed="1", target="raftkv",
        guided=guided)
    elapsed = time.perf_counter() - started
    unattributed = sum(r["unattributed"] for r in result.trajectory)
    return {
        "guided": guided,
        "budget": budget,
        "distinct_states": result.distinct_states,
        "distinct_edges": result.distinct_edges,
        "graph_states": result.graph_states,
        "graph_edges": result.graph_edges,
        "entries": len(result.corpus.entries),
        "unattributed": unattributed,
        "elapsed_seconds": round(elapsed, 3),
        "trajectory": [{"run": r["run"], "op": r["op"],
                        "states": r["states"], "edges": r["edges"]}
                       for r in result.trajectory],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_fuzz.json")
    parser.add_argument("--budget", type=int, default=12)
    parser.add_argument("--cases", type=int, default=4)
    parser.add_argument("--max-states", type=int, default=2000)
    args = parser.parse_args(argv)

    spec, mapping, cluster_factory = kit("raftkv")
    graph = canonicalize(check(spec, max_states=args.max_states,
                               truncate=True).graph)
    suite = generate_test_cases(graph, por=True,
                                seed=0).truncated(args.cases)
    bed = (mapping, cluster_factory, graph, suite)

    print(f"fuzz bench: raftkv, {graph.num_states} states / "
          f"{graph.num_edges} edges, {len(suite)} base cases, "
          f"budget {args.budget} per arm")
    arms = {"guided": run_arm(bed, True, args.budget),
            "unguided": run_arm(bed, False, args.budget)}
    for name, arm in arms.items():
        print(f"  {name:<9} {arm['distinct_states']:>4} states "
              f"{arm['distinct_edges']:>4} edges  "
              f"({arm['elapsed_seconds']}s, "
              f"{arm['unattributed']} unattributed)")

    guided_total = (arms["guided"]["distinct_states"]
                    + arms["guided"]["distinct_edges"])
    unguided_total = (arms["unguided"]["distinct_states"]
                      + arms["unguided"]["distinct_edges"])
    failures = []
    for name, arm in arms.items():
        if arm["unattributed"]:
            failures.append(f"{name} arm hit {arm['unattributed']} "
                            f"unattributed divergences on clean raftkv")
    if guided_total <= unguided_total:
        failures.append(
            f"guided coverage {guided_total} is not strictly above "
            f"unguided {unguided_total}")

    record = {
        "benchmark": "fuzz_guidance",
        "target": "raftkv",
        "budget": args.budget,
        "cases": len(suite),
        "guided_total": guided_total,
        "unguided_total": unguided_total,
        "gate_passed": not failures,
        "arms": arms,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"gate passed: guided {guided_total} > "
          f"unguided {unguided_total} (states+edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
