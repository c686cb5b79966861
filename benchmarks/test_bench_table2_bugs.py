"""Table 2: the nine bugs found by Mocket.

Runs every bug-revealing schedule against the matching buggy target
(and the correct target, which must pass) and reports, per bug, the
divergence kind, the reported inconsistency, the elapsed wall clock and
the number of actions in the bug-revealing test case — next to the
paper's values.

Elapsed times differ wildly from the paper (the paper measures *search*
time over thousands of generated cases; the scenario pinpoints the
verified schedule directly — see the Table 3 bench for search effort).
The reported divergence kinds match Table 2 row by row.
"""

import time

from conftest import print_table

from repro.core import ControlledTester
from repro.systems.minizk import MiniZkConfig, build_minizk_mapping, make_minizk_cluster
from repro.systems.minizk.scenarios import zk_bug_1419, zk_bug_1653
from repro.systems.pyxraft import XraftConfig, build_xraft_mapping, make_xraft_cluster
from repro.systems.pyxraft.scenarios import xraft_bug1, xraft_bug2, xraft_bug3
from repro.systems.raftkv import RaftKvConfig, build_raftkv_mapping, make_raftkv_cluster
from repro.systems.raftkv.scenarios import (
    raft_spec_bug_missing_reply,
    raft_spec_bug_update_term,
    raftkv_bug1,
    raftkv_bug2,
)


# (scenario builder, tester kit, paper row: type / inconsistency / time / acts)
_BUGS = [
    (xraft_bug1, "xraft", "Xraft #1 (New)",
     ("Impl.", "Inconsistent state votesGranted", "1 min", 6)),
    (xraft_bug2, "xraft", "Xraft #2 (New)",
     ("Impl.", "Inconsistent state votedFor", "7 min", 9)),
    (xraft_bug3, "xraft", "Xraft #3 (New)",
     ("Impl.", "Unexpected HandleRequestVoteResponse", "39 min", 19)),
    (raftkv_bug1, "raftkv", "Raft-java #1",
     ("Impl.", "Missing HandleRequestVoteResponse", "6 min", 18)),
    (raftkv_bug2, "raftkv", "Raft-java #2",
     ("Impl.", "Inconsistent state log", "5 hours", 31)),
    (zk_bug_1419, "minizk", "ZooKeeper #1",
     ("Impl.", "Unexpected ReceiveMessage", "13 hours", 39)),
    (zk_bug_1653, "minizk", "ZooKeeper #2",
     ("Impl.", "Missing StartElection", "29 hours", 51)),
    (raft_spec_bug_missing_reply, "raftkv", "Raft-spec #1 (New)",
     ("Spec.", "Inconsistent state messages", "<1 min", 8)),
    (raft_spec_bug_update_term, "raftkv", "Raft-spec #2 (New)",
     ("Spec.", "Missing UpdateTerm", "<1 min", 5)),
]

_KITS = {
    "xraft": (build_xraft_mapping, make_xraft_cluster, XraftConfig),
    "raftkv": (build_raftkv_mapping, make_raftkv_cluster, RaftKvConfig),
    "minizk": (build_minizk_mapping, make_minizk_cluster, MiniZkConfig),
}


def _run(scenario, kit, config):
    build_mapping, make_cluster, _ = _KITS[kit]
    tester = ControlledTester(
        build_mapping(scenario.spec, config), scenario.graph,
        lambda: make_cluster(scenario.servers, config),
    )
    started = time.monotonic()
    result = tester.run_case(scenario.case)
    return result, time.monotonic() - started


def test_bench_table2(benchmark):
    def run_all():
        rows = []
        for build, kit, bug_id, paper in _BUGS:
            scenario = build()
            # the correct implementation conforms (spec-bug scenarios have
            # no correct target: the divergence IS the spec's fault)
            correct_config = getattr(scenario, "correct_config", None)
            if not getattr(scenario, "is_spec_bug", False):
                fixed = correct_config if correct_config is not None \
                    else _KITS[kit][2]()
                ok, _ = _run(scenario, kit, fixed)
                assert ok.passed, f"{bug_id}: fixed target diverged"
            result, elapsed = _run(scenario, kit, scenario.buggy_config)
            assert not result.passed, f"{bug_id}: bug not detected"
            assert result.divergence.kind.value == scenario.expected_kind
            rows.append((bug_id, paper[0], result.divergence.headline(),
                         f"{paper[2]} / {elapsed:.2f}s",
                         f"{paper[3]} / {len(scenario.case)}"))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Table 2 — bugs found by Mocket (paper / measured)",
        ("ID", "Type", "Reported inconsistency (measured)",
         "Elapsed (paper/ours)", "# Actions (paper/ours)"),
        rows,
    )
    assert len(rows) == 9
