"""Benchmark guard: observability overhead on the Figure-2 example check.

The obs layer promises a no-op fast path: with tracing disabled
(the default), the instrumented checker must stay within a few percent
of the uninstrumented seed checker.  This script measures three
variants of the Figure-2 example-graph check (13 states, 18 edges):

* **baseline** — a faithful replica of the seed BFS loop with no
  instrumentation at all (the pre-obs checker),
* **disabled** — the instrumented ``ModelChecker`` with tracing off,
* **enabled** — the instrumented checker with tracing on (ring buffer
  only, no sink).

plus a per-call microbenchmark of the disabled ``emit``/``span`` fast
path.  It exits non-zero when the disabled-tracing overhead over the
baseline exceeds the threshold (default 5%).

Samples are interleaved (baseline/disabled/enabled within each round)
and the per-variant minimum is used, so slow-machine drift affects all
variants alike.

Usage::

    PYTHONPATH=src python benchmarks/check_overhead.py [--threshold 5]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import deque
from typing import Dict, Optional

from repro import obs
from repro.specs import build_example_spec
from repro.tlaplus import check
from repro.tlaplus.checker import run_table
from repro.tlaplus.graph import StateGraph


def _seed_check(spec) -> StateGraph:
    """The seed checker's BFS loop, byte-for-byte logic, zero obs calls.

    Kept in sync with ``ModelChecker._run`` minus instrumentation; it is
    the measurement baseline the guard compares against.
    """
    graph = StateGraph(spec.name)
    parents: Dict[int, Optional[tuple]] = {}
    depth: Dict[int, int] = {}
    frontier = deque()
    for state in spec.initial_states():
        node_id = graph.add_state(state, initial=True)
        if node_id not in parents:
            parents[node_id] = None
            depth[node_id] = 0
            frontier.append(node_id)
            spec.check_invariants(state)
    table = run_table(spec, graph)
    while frontier:
        node_id = frontier.popleft()
        state = graph.state_of(node_id)
        for label, successor in spec.enabled(state, table):
            succ_id = graph.id_of(successor)
            is_new = succ_id is None
            if is_new:
                succ_id = graph.add_state(successor)
            graph.add_edge(node_id, succ_id, label)
            if is_new:
                parents[succ_id] = (node_id, label)
                depth[succ_id] = depth[node_id] + 1
                frontier.append(succ_id)
                spec.check_invariants(successor)
    return graph


def _time_once(fn, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def measure(iterations: int = 40, samples: int = 9) -> Dict[str, float]:
    """Per-variant best-of-``samples`` mean time over ``iterations`` runs."""

    def baseline() -> None:
        _seed_check(build_example_spec())

    def instrumented() -> None:
        check(build_example_spec())

    results = {"baseline": float("inf"), "disabled": float("inf"),
               "enabled": float("inf")}
    obs.reset()
    obs.METRICS.reset()
    baseline()                               # warm allocator/caches for both
    instrumented()
    # a GC collection landing inside one variant's window would dwarf
    # the few-microsecond spread being measured
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            obs.TRACER.disable()
            results["baseline"] = min(results["baseline"],
                                      _time_once(baseline, iterations))
            results["disabled"] = min(results["disabled"],
                                      _time_once(instrumented, iterations))
            obs.configure(enabled=True)      # ring buffer only, no sink
            results["enabled"] = min(results["enabled"],
                                     _time_once(instrumented, iterations))
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    obs.reset()
    obs.METRICS.reset()

    # per-call cost of the disabled fast path (must be well under 1 µs)
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        obs.TRACER.emit("guard.noop", x=1)
    results["disabled_emit_ns"] = (time.perf_counter() - start) / calls * 1e9
    start = time.perf_counter()
    for _ in range(calls):
        with obs.TRACER.span("guard.noop"):
            pass
    results["disabled_span_ns"] = (time.perf_counter() - start) / calls * 1e9

    results["disabled_overhead_pct"] = (
        100.0 * (results["disabled"] - results["baseline"]) / results["baseline"]
    )
    results["enabled_overhead_pct"] = (
        100.0 * (results["enabled"] - results["baseline"]) / results["baseline"]
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max disabled-tracing overhead in percent")
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--samples", type=int, default=9)
    args = parser.parse_args(argv)

    results = measure(iterations=args.iterations, samples=args.samples)
    print(f"baseline (seed replica):  {results['baseline'] * 1e3:8.3f} ms/check")
    print(f"tracing disabled:         {results['disabled'] * 1e3:8.3f} ms/check "
          f"({results['disabled_overhead_pct']:+.2f}%)")
    print(f"tracing enabled (ring):   {results['enabled'] * 1e3:8.3f} ms/check "
          f"({results['enabled_overhead_pct']:+.2f}%)")
    print(f"disabled emit():          {results['disabled_emit_ns']:8.1f} ns/call")
    print(f"disabled span():          {results['disabled_span_ns']:8.1f} ns/call")

    if results["disabled_overhead_pct"] > args.threshold:
        print(f"FAIL: disabled-tracing overhead "
              f"{results['disabled_overhead_pct']:.2f}% exceeds "
              f"{args.threshold:.1f}%")
        return 1
    print(f"OK: disabled-tracing overhead within {args.threshold:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
