"""Benchmark: shrink cost stays within the ddmin bound.

Shrinking replays candidate sub-plans through the real fault runner,
so its cost is *replays*, not CPU.  This bench measures the replay
count on two workloads and writes a ``BENCH_shrink.json`` record:

* **end_to_end** — a seeded 12-injection toycache chaos plan
  (``--chaos --max-faults 3`` over 4 cases) shrunk against the
  ``bug_wrong_max`` implementation.  The failure is fault-independent,
  so the scope + empty-plan probe must find the minimal (empty) repro
  in a handful of replays — the common fast path a `mocket test
  --shrink-on-failure` user hits.

* **ddmin_stress** — the raw ddmin reducer on synthetic injection
  lists of growing size with a planted two-injection culprit, counting
  predicate calls.  Classic delta debugging is O(n^2) tests in the
  worst case; the guard asserts each run stays at or under ``n^2 +
  n``, so a regression that degenerates the search (e.g. broken
  granularity stepping) fails the bench rather than silently making
  every future shrink campaign quadratically slower than it should be.

The script exits non-zero when a bound is violated or the end-to-end
shrink stops reproducing the failure.

Usage::

    PYTHONPATH=src python benchmarks/shrink_bench.py
        [--out BENCH_shrink.json] [--sizes 8,16,32,64]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core import generate_test_cases
from repro.engine import canonicalize
from repro.faults import plan_faults, shrink_plan
from repro.faults.plan import FaultInjection, InjectionMode
from repro.faults.shrink import _Session, _ddmin
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check


def bench_end_to_end() -> dict:
    spec = build_example_spec()
    config = ToyCacheConfig(bug_wrong_max=True)
    mapping = build_toycache_mapping()
    graph = canonicalize(check(spec).graph)
    suite = generate_test_cases(graph, por=True, seed=0).truncated(4)
    factory = lambda: make_toycache_cluster(config)
    # seed '6' is pinned: its 12-injection multi-fault plan leaves the
    # bug's divergence unattributed, so there is something to shrink
    plan = plan_faults(graph, suite, mapping, "6", factory().node_ids,
                       chaos=True, target="toycache", max_faults_per_case=3)
    started = time.perf_counter()
    result = shrink_plan(
        plan, graph, suite, mapping, factory,
        budget=200)
    elapsed = time.perf_counter() - started
    return {
        "target": "toycache",
        "initial_injections": result.initial_count,
        "final_injections": result.final_count,
        "replays_to_minimal": result.replays,
        "fault_independent": result.fault_independent,
        "converged": result.converged,
        "signature": result.signature,
        "seconds": round(elapsed, 4),
        # scope + probe + validation: the fast path needs no ddmin
        "replay_bound": result.initial_count + 3,
    }


def _synthetic(count: int):
    return [FaultInjection(InjectionMode.CHAOS, "reorder", case_id=0,
                           step_index=index + 1, params={"node": "server"})
            for index in range(count)]


def bench_ddmin_stress(sizes) -> list:
    rows = []
    for size in sizes:
        items = _synthetic(size)
        # planted culprit: the failure needs the first and last injection
        culprit = {id(items[0]), id(items[-1])}
        session = _Session(budget=10 * size * size)

        def fails(candidate):
            session.replays += 1
            return culprit <= set(map(id, candidate))

        minimal, converged = _ddmin(list(items), fails, session)
        rows.append({
            "size": size,
            "replays": session.replays,
            "minimal": len(minimal),
            "converged": converged,
            "bound_n2_plus_n": size * size + size,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="8,16,32,64")
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..",
                             "BENCH_shrink.json"))
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s]

    record = {
        "bench": "shrink",
        "end_to_end": bench_end_to_end(),
        "ddmin_stress": bench_ddmin_stress(sizes),
    }

    out_path = os.path.abspath(args.out)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    e2e = record["end_to_end"]
    print(f"end-to-end ({e2e['target']}): "
          f"{e2e['initial_injections']} -> {e2e['final_injections']} "
          f"injections in {e2e['replays_to_minimal']} replays "
          f"({e2e['seconds']}s)")
    for row in record["ddmin_stress"]:
        print(f"ddmin n={row['size']}: {row['replays']} replays "
              f"-> {row['minimal']} (bound {row['bound_n2_plus_n']})")
    print(f"record written to {out_path}")

    if not e2e["converged"] or not e2e["signature"]:
        print("FAIL: end-to-end shrink did not converge on a repro",
              file=sys.stderr)
        return 1
    if e2e["replays_to_minimal"] > e2e["replay_bound"]:
        print(f"FAIL: fast path took {e2e['replays_to_minimal']} replays "
              f"(bound {e2e['replay_bound']})", file=sys.stderr)
        return 1
    bad = [row for row in record["ddmin_stress"]
           if not row["converged"] or row["minimal"] != 2
           or row["replays"] > row["bound_n2_plus_n"]]
    if bad:
        print(f"FAIL: ddmin exceeded the O(n^2) bound or missed the "
              f"culprit at sizes {[row['size'] for row in bad]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
