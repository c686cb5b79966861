"""cProfile of the cold path: check -> testgen -> canon on one catalog model.

Runs the cold path of one ``explore-ladder`` rung of the pipeline
benchmark — ``check``, the POR suite and the PathEC suite — plus what
``mocket faults|fuzz|conform`` and the benchmark's equivalence stage do
with a checked graph: ``canonicalize``, ``to_dot`` and
``graphs_equivalent`` against a second ``check`` of the same spec.  It
prints, per model, the stage wall times (unprofiled, best of
``--repeats``), the check rate, the action memo's hit ratio and entry
count, the profile's top functions by internal time, and an untimed
``tracemalloc`` pass: the live MB after check, POR and PathEC, after
iterating every step of both suites, and the peak.  The committed listings in ``benchmarks/profiles/`` were
produced by this script.

Usage::

    PYTHONPATH=src python benchmarks/profile_cold_path.py [MODEL ...] [--top 20]

``MODEL`` names a catalog model (``mocket check`` accepts the same
names); the default is ``xraft zab``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import platform
import pstats
import sys
import time
import tracemalloc

from repro.core import generate_test_cases
from repro.engine import canonicalize, graphs_equivalent
from repro.systems.catalog import get_model
from repro.tlaplus import check
from repro.tlaplus.dot import to_dot

#: the stages whose wall times are printed, in pipeline order
STAGES = ("check_s", "por_s", "pathec_s",
          "canonicalize_s", "to_dot_s", "equiv_s")


def rung(spec) -> dict:
    """One rung; returns the stage wall times."""
    times = {}

    def timed(stage, call):
        start = time.perf_counter()
        result = call()
        times[stage] = time.perf_counter() - start
        return result

    result = timed("check_s", lambda: check(spec))
    graph = result.graph
    por = timed("por_s", lambda: generate_test_cases(graph, por=True,
                                                     seed=0))
    pathec = timed("pathec_s", lambda: generate_test_cases(graph, por=False))
    timed("canonicalize_s", lambda: canonicalize(graph))
    timed("to_dot_s", lambda: to_dot(graph))
    again = check(spec).graph
    timed("equiv_s", lambda: graphs_equivalent(graph, again))
    times.update(states=graph.num_states, edges=graph.num_edges,
                 por_actions=por.total_actions(),
                 pathec_actions=pathec.total_actions(), **result.memo)
    return times


def memory(spec) -> str:
    """Live traced MB along one untimed rung, and the peak."""
    mb = 1 << 20
    live = []
    tracemalloc.start()
    try:
        graph = check(spec).graph
        live.append(("check", tracemalloc.get_traced_memory()[0]))
        por = generate_test_cases(graph, por=True, seed=0)
        live.append(("por", tracemalloc.get_traced_memory()[0]))
        pathec = generate_test_cases(graph, por=False)
        live.append(("pathec", tracemalloc.get_traced_memory()[0]))
        steps = sum(1 for suite in (por, pathec) for case in suite
                    for _step in case.steps)
        current, peak = tracemalloc.get_traced_memory()
        live.append(("iterated", current))
    finally:
        tracemalloc.stop()
    per_state = live[0][1] / graph.num_states
    return ("   memory MB: " + ", ".join(f"{stage} {size / mb:.1f}"
                                         for stage, size in live)
            + f", peak {peak / mb:.1f}; {per_state:,.0f} B/state after "
            f"check; {steps} steps iterated (tracemalloc, untimed)\n")


def profile_model(name: str, top: int, repeats: int) -> str:
    build = get_model(name)
    runs = [rung(build()) for _ in range(repeats)]
    best = {key: min(run[key] for run in runs) for key in runs[0]}
    profiler = cProfile.Profile()
    profiler.enable()
    rung(build())
    profiler.disable()
    out = io.StringIO()
    out.write(f"== {name}: {best['states']} states, {best['edges']} edges; "
              f"POR {best['por_actions']} / PathEC {best['pathec_actions']} "
              f"actions\n")
    out.write("   " + ", ".join(
        f"{key} {best[key]:.3f}" for key in STAGES))
    out.write(f"; check {best['states'] / best['check_s']:,.0f} states/s "
              f"(best of {repeats}, unprofiled)\n")
    pairs = best["memo_hits"] + best["memo_misses"]
    out.write(f"   action memo: {best['memo_hits'] / pairs:.1%} hit of "
              f"{pairs:,} memoized (state, action) pairs, "
              f"{best['memo_entries']:,} entries\n")
    out.write(memory(build()))
    stats = pstats.Stats(profiler, stream=out).strip_dirs()
    stats.sort_stats("tottime").print_stats(top)
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("models", nargs="*", default=["xraft", "zab"])
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"python {platform.python_version()}, {platform.system()} "
          f"{platform.machine()}, {os.cpu_count()} CPUs")
    for name in args.models:
        print(profile_model(name, args.top, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
