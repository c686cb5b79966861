"""Figures 8 and 9: the Xraft bug traces, replayed step by step.

Figure 8 — Xraft bug #2: node 2 grants its vote to candidate n1, a
restart erases the (never persisted) vote, and node 2 votes again for a
second candidate.

Figure 9 — Xraft bug #3 (adapted mechanics, same divergence): a stale
candidate collects votes the verified state space forbids, making a
second leader possible while the first still leads.
"""

import time

from conftest import print_table

from repro.core import ControlledTester, DivergenceKind
from repro.systems.pyxraft import XraftConfig, build_xraft_mapping, make_xraft_cluster
from repro.systems.pyxraft.scenarios import xraft_bug2, xraft_bug3


def _replay(scenario):
    tester = ControlledTester(
        build_xraft_mapping(scenario.spec, scenario.buggy_config),
        scenario.graph,
        lambda: make_xraft_cluster(scenario.servers, scenario.buggy_config),
    )
    started = time.monotonic()
    result = tester.run_case(scenario.case)
    return result, time.monotonic() - started


def test_bench_figure8(benchmark):
    scenario = xraft_bug2()
    result, elapsed = benchmark.pedantic(lambda: _replay(scenario),
                                         rounds=1, iterations=1)
    assert not result.passed
    assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
    assert "votedFor" in result.divergence.variable_names

    rows = [(i, repr(step.label),
             "<-- divergence" if i == result.divergence.step_index else "")
            for i, step in enumerate(scenario.case.steps)]
    print_table(f"Figure 8 — Xraft bug #2 trace ({elapsed:.2f}s)",
                ("step", "action", ""), rows)
    vd = result.divergence.variables[0]
    print(f"votedFor expected {vd.expected!r}, observed {vd.actual!r}")


def test_bench_figure9(benchmark):
    scenario = xraft_bug3()
    result, elapsed = benchmark.pedantic(lambda: _replay(scenario),
                                         rounds=1, iterations=1)
    assert not result.passed
    assert result.divergence.kind is DivergenceKind.UNEXPECTED_ACTION
    assert result.divergence.action == "HandleRequestVoteResponse"

    rows = [(i, repr(step.label)[:90],
             "<-- divergence" if i == result.divergence.step_index else "")
            for i, step in enumerate(scenario.case.steps)]
    print_table(f"Figure 9 — Xraft bug #3 trace ({elapsed:.2f}s)",
                ("step", "action", ""), rows)
    print("the system offered a granted=true vote response the verified "
          "state space forbids — a second leader becomes possible")
