#!/usr/bin/env python
"""Hunting the three Xraft bugs (Table 2, Figures 8 and 9).

Each bug is reproduced twice:

* through its *scenario* — a schedule verified against the Raft
  specification (the expected states are computed by the spec),
* and, for the shallow duplicate-vote bug, through plain suite-based
  testing: generate EC+POR cases from the fault model and run them
  until one diverges, which is how the paper found the bugs.

Run:  python examples/raft_bug_hunt.py
"""

import time

from repro.core import ControlledTester, generate_test_cases
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)
from repro.systems.pyxraft.scenarios import xraft_bug1, xraft_bug2, xraft_bug3
from repro.tlaplus import check


def scenario_hunt() -> None:
    print("== scenario-guided reproduction ==")
    for build in (xraft_bug1, xraft_bug2, xraft_bug3):
        scenario = build()
        tester = ControlledTester(
            build_xraft_mapping(scenario.spec, scenario.buggy_config),
            scenario.graph,
            lambda: make_xraft_cluster(scenario.servers, scenario.buggy_config),
        )
        started = time.monotonic()
        result = tester.run_case(scenario.case)
        elapsed = time.monotonic() - started
        assert not result.passed
        print(f"{scenario.name}: {result.divergence.headline()}")
        print(f"  case length {len(scenario.case)} actions, "
              f"detected in {elapsed:.2f}s")
        print(f"  schedule: {scenario.case.describe()[:120]}...")


def suite_hunt() -> None:
    print("\n== suite-based discovery (the paper's mode) ==")
    spec = build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=True, enable_drop=True, enable_duplicate=True,
        max_restarts=1, max_drops=1, max_duplicates=1,
        candidates=("n1",), name="xraft-fault-model",
    ))
    graph = check(spec).graph
    suite = generate_test_cases(graph, por=True)
    print(f"model: {graph.num_states} states, {graph.num_edges} edges; "
          f"{len(suite)} EC+POR test cases")
    config = XraftConfig(bug_duplicate_vote_count=True)
    tester = ControlledTester(
        build_xraft_mapping(spec, config), graph,
        lambda: make_xraft_cluster(("n1", "n2", "n3"), config),
    )
    started = time.monotonic()
    outcome = tester.run_suite(suite, stop_on_divergence=True, max_cases=500)
    elapsed = time.monotonic() - started
    failing = outcome.failures[0]
    print(f"bug found after {len(outcome.results)} cases / {elapsed:.1f}s: "
          f"{failing.divergence.headline()}")
    print(f"  bug-revealing case: {len(failing.case)} actions")


if __name__ == "__main__":
    scenario_hunt()
    suite_hunt()
