"""Figures 10 and 11: the two official Raft specification bugs.

Both are revealed by testing the *fixed* raftkv implementation against
the ``spec_bugs=True`` model, and both vanish against the fixed model —
the investigator's procedure of Section 4.3.3.
"""

import time

from conftest import print_table

from repro.core import ControlledTester, DivergenceKind
from repro.systems.raftkv import build_raftkv_mapping, make_raftkv_cluster
from repro.systems.raftkv.scenarios import (
    raft_spec_bug_missing_reply,
    raft_spec_bug_update_term,
)


def _replay(scenario):
    tester = ControlledTester(
        build_raftkv_mapping(scenario.spec, scenario.buggy_config),
        scenario.graph,
        lambda: make_raftkv_cluster(scenario.servers, scenario.buggy_config),
    )
    started = time.monotonic()
    result = tester.run_case(scenario.case)
    return result, time.monotonic() - started


def test_bench_figure10(benchmark):
    """Figure 10: UpdateTerm wrongly interleaves as a standalone action."""
    scenario = raft_spec_bug_update_term()
    result, elapsed = benchmark.pedantic(lambda: _replay(scenario),
                                         rounds=1, iterations=1)
    assert not result.passed
    assert result.divergence.kind is DivergenceKind.MISSING_ACTION
    assert result.divergence.action == "UpdateTerm"
    rows = [(i, repr(s.label)[:90]) for i, s in enumerate(scenario.case.steps)]
    print_table(f"Figure 10 — standalone UpdateTerm ({elapsed:.2f}s)",
                ("step", "action"), rows)
    print("no implementation performs UpdateTerm as an independent action: "
          "missing action UpdateTerm")


def test_bench_figure11(benchmark):
    """Figure 11: the return-to-follower branch does not Reply."""
    scenario = raft_spec_bug_missing_reply()
    result, elapsed = benchmark.pedantic(lambda: _replay(scenario),
                                         rounds=1, iterations=1)
    assert not result.passed
    assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
    assert "messages" in result.divergence.variable_names
    rows = [(i, repr(s.label)[:90]) for i, s in enumerate(scenario.case.steps)]
    print_table(f"Figure 11 — missing Reply branch ({elapsed:.2f}s)",
                ("step", "action"), rows)
    vd = result.divergence.variables[0]
    print(f"messages bag expected {vd.expected!r}"[:120])
    print(f"          observed {vd.actual!r}"[:120])
