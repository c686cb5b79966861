#!/usr/bin/env python
"""Specification bugs: when the implementation is right and the model is
wrong (Figures 10 and 11).

The *fixed* raftkv implementation is tested against the official Raft
TLA+ specification (``spec_bugs=True``).  Both reported inconsistencies
are spec bugs:

* ``UpdateTerm`` interleaves as a standalone action that no real
  implementation has → *missing action UpdateTerm*,
* the candidate-steps-down branch of ``HandleAppendEntriesRequest``
  neither replies nor consumes its message → *inconsistent state for
  variable messages*.

The same step-down behaviour passes against the fixed specification,
which is how an investigator concludes the spec, not the code, is wrong
(Section 4.3.3).

Run:  python examples/spec_bug_demo.py
"""

from repro.core import ControlledTester
from repro.systems.raftkv import build_raftkv_mapping, make_raftkv_cluster
from repro.systems.raftkv.scenarios import (
    raft_spec_bug_missing_reply,
    raft_spec_bug_update_term,
)


def main() -> None:
    for build in (raft_spec_bug_update_term, raft_spec_bug_missing_reply):
        scenario = build()
        tester = ControlledTester(
            build_raftkv_mapping(scenario.spec, scenario.buggy_config),
            scenario.graph,
            lambda: make_raftkv_cluster(scenario.servers, scenario.buggy_config),
        )
        result = tester.run_case(scenario.case)
        assert not result.passed
        print(f"{scenario.name}: {result.divergence.headline()}")
        print(f"  schedule ({len(scenario.case)} actions): "
              f"{scenario.case.describe()[:140]}...")
        print("  verdict: the implementation is fixed — this is a SPEC bug\n")


if __name__ == "__main__":
    main()
