"""Table 3: testing effort — states, EC paths, EC+POR paths, time.

For each of the three (scaled-down) models:

* ``State`` — states in the model-checked graph,
* ``PathEC`` — test cases generated with edge coverage only,
* ``PathEC+POR`` — test cases after partial order reduction,
* ``Time`` — estimated suite wall clock (per-case time measured on a
  sample × number of EC+POR cases), mirroring the paper's
  seconds-per-case × cases figure.

Preserved shapes: ZooKeeper > Xraft > Raft-java in state count; POR
removes a large share of EC paths (87% for ZooKeeper in the paper).
"""

import time

from conftest import print_table

from repro.core import ControlledTester, generate_test_cases
from repro.systems.minizk import MiniZkConfig, build_minizk_mapping, make_minizk_cluster
from repro.systems.pyxraft import XraftConfig, build_xraft_mapping, make_xraft_cluster
from repro.systems.raftkv import RaftKvConfig, build_raftkv_mapping, make_raftkv_cluster

_SAMPLE = 12  # cases timed to estimate the per-case cost

_PAPER = {
    "Xraft": (91_532, 296_154, 39_047, "75 h"),
    "Raft-java": (23_911, 85_976, 9_829, "13 h"),
    "ZooKeeper": (105_054, 342_770, 44_361, "123 h"),
}


def _measure(name, spec, graph, build_mapping, make_cluster, config):
    suite_ec = generate_test_cases(graph, por=False)
    suite_por = generate_test_cases(graph, por=True)
    tester = ControlledTester(build_mapping(spec, config), graph,
                              lambda: make_cluster(spec.constants["Server"], config))
    started = time.monotonic()
    sample = tester.run_suite(suite_por, max_cases=_SAMPLE)
    assert sample.passed, [r.divergence for r in sample.failures][:2]
    per_case = (time.monotonic() - started) / len(sample.results)
    estimated = per_case * len(suite_por)
    return {
        "states": graph.num_states,
        "path_ec": len(suite_ec),
        "path_por": len(suite_por),
        "per_case": per_case,
        "estimate": estimated,
    }


def test_bench_table3(benchmark, xraft_model, raftkv_model, zab_model):
    def run_all():
        out = {}
        xspec, xgraph = xraft_model
        out["Xraft"] = _measure("Xraft", xspec, xgraph,
                                build_xraft_mapping, make_xraft_cluster,
                                XraftConfig())
        kspec, kgraph = raftkv_model
        out["Raft-java"] = _measure("Raft-java", kspec, kgraph,
                                    build_raftkv_mapping, make_raftkv_cluster,
                                    RaftKvConfig())
        zspec, zgraph = zab_model
        out["ZooKeeper"] = _measure("ZooKeeper", zspec, zgraph,
                                    build_minizk_mapping, make_minizk_cluster,
                                    MiniZkConfig())
        return out

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name in ("Xraft", "Raft-java", "ZooKeeper"):
        paper = _PAPER[name]
        m = measured[name]
        reduction = 100.0 * (1 - m["path_por"] / m["path_ec"])
        rows.append((
            name,
            f"{paper[0]:,} / {m['states']:,}",
            f"{paper[1]:,} / {m['path_ec']:,}",
            f"{paper[2]:,} / {m['path_por']:,}",
            f"{reduction:.0f}%",
            f"{paper[3]} / ~{m['estimate'] / 60:.1f} min",
        ))
    print_table(
        "Table 3 — testing effort (paper / measured, scaled-down models)",
        ("System", "State", "PathEC", "PathEC+POR", "POR cut", "Time"),
        rows,
    )

    # shape assertions
    assert measured["ZooKeeper"]["states"] > measured["Xraft"]["states"] \
        > measured["Raft-java"]["states"]
    for m in measured.values():
        assert m["path_por"] < m["path_ec"]
