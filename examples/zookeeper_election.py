#!/usr/bin/env python
"""ZooKeeper/ZAB: model checking, conformance and the two known bugs.

* model-check the ZAB specification (election + epoch handshake),
* run a conformance sample against the correct minizk,
* reproduce ZOOKEEPER-1419 (election never settles → unexpected action)
  and ZOOKEEPER-1653 (inconsistent epoch → missing StartElection).

Run:  python examples/zookeeper_election.py
"""

from repro.core import ControlledTester, generate_test_cases
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.systems.minizk import (
    MiniZkConfig,
    build_minizk_mapping,
    make_minizk_cluster,
)
from repro.systems.minizk.scenarios import zk_bug_1419, zk_bug_1653
from repro.tlaplus import check


def conformance() -> None:
    spec = build_zab_spec(ZabSpecOptions(
        servers=("n1", "n2", "n3"), max_elections=1,
        max_crashes=0, max_restarts=0, starters=("n3",), name="zab",
    ))
    result = check(spec, max_states=40000)
    print("ZAB model:", result.summary())
    suite = generate_test_cases(result.graph, por=True)
    print(f"{len(suite)} EC+POR test cases")
    config = MiniZkConfig()
    tester = ControlledTester(
        build_minizk_mapping(spec, config), result.graph,
        lambda: make_minizk_cluster(("n1", "n2", "n3"), config),
    )
    outcome = tester.run_suite(suite, max_cases=25)
    status = "conform" if outcome.passed else "DIVERGE"
    print(f"correct minizk: {len(outcome.results)} cases {status}\n")


def bug_reproduction() -> None:
    for build in (zk_bug_1419, zk_bug_1653):
        scenario = build()
        tester = ControlledTester(
            build_minizk_mapping(scenario.spec, scenario.buggy_config),
            scenario.graph,
            lambda: make_minizk_cluster(scenario.servers, scenario.buggy_config),
        )
        result = tester.run_case(scenario.case)
        assert not result.passed
        print(f"{scenario.name}: {result.divergence.headline()}")
        print(f"  {len(scenario.case)}-action schedule, divergence at "
              f"step {result.divergence.step_index}")


if __name__ == "__main__":
    conformance()
    bug_reproduction()
