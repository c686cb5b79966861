#!/usr/bin/env python
"""Quickstart: the full Mocket pipeline on the paper's Figure 1 example.

1. Write a specification (here: the cache server of Figure 1).
2. Model-check it — the checker enumerates the verified state space
   (13 states for Data = {1, 2}, exactly Figure 2).
3. Generate test cases: edge-coverage-guided traversal + partial order
   reduction over the state graph.
4. Run controlled testing against an instrumented implementation — and
   watch a seeded bug fall out as a divergence report.

Run:  python examples/quickstart.py
"""

from repro.core import ControlledTester, generate_test_cases
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check, to_dot


def main() -> None:
    # -- 1+2: specification and model checking ----------------------------
    spec = build_example_spec(data=(1, 2))
    result = check(spec)
    print("model checking:", result.summary())
    print("  (Figure 2 is this graph; DOT dump below)")
    print("\n".join(to_dot(result.graph).splitlines()[:4]), "...\n")

    # -- 3: test-case generation ------------------------------------------
    suite = generate_test_cases(result.graph, por=True)
    print(f"generated {len(suite)} test cases "
          f"({suite.total_actions()} scheduled actions, "
          f"{suite.excluded_edges} edges dropped by POR)")
    print("first case:", suite[0].describe(), "\n")

    # -- 4: controlled testing --------------------------------------------
    def run(config: ToyCacheConfig, label: str) -> None:
        tester = ControlledTester(
            build_toycache_mapping(), result.graph,
            lambda: make_toycache_cluster(config),
        )
        outcome = tester.run_suite(suite, stop_on_divergence=True)
        if outcome.passed:
            print(f"{label}: all {len(outcome.results)} cases conform")
        else:
            failing = outcome.failures[0]
            print(f"{label}: divergence after {len(outcome.results)} cases —",
                  failing.divergence.headline())
            print("  schedule:", failing.case.describe())

    run(ToyCacheConfig(), "correct implementation")
    run(ToyCacheConfig(bug_wrong_max=True), "bug_wrong_max")
    run(ToyCacheConfig(bug_forget_respond=True), "bug_forget_respond")
    run(ToyCacheConfig(bug_double_respond=True), "bug_double_respond")


if __name__ == "__main__":
    main()
