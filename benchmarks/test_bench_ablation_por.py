"""Ablation: what partial order reduction buys (DESIGN.md §5).

Compares, on the Xraft and ZooKeeper models:

* generated case counts and total scheduled actions (EC vs EC+POR),
* actual testing wall clock on a fixed case budget,
* coverage: both suites must cover every action name.

Also measures the cost side of POR: the diamond search itself.
"""

import time

from conftest import print_table

from repro.core import ControlledTester, generate_test_cases
from repro.core.testgen import diamond_stats
from repro.systems.pyxraft import XraftConfig, build_xraft_mapping, make_xraft_cluster


def test_bench_ablation_por(benchmark, xraft_model, zab_model):
    def measure():
        rows = []
        for name, (spec, graph) in (("Xraft", xraft_model),
                                    ("ZooKeeper", zab_model)):
            t0 = time.monotonic()
            suite_ec = generate_test_cases(graph, por=False)
            t_ec = time.monotonic() - t0
            t0 = time.monotonic()
            suite_por = generate_test_cases(graph, por=True)
            t_por = time.monotonic() - t0
            stats = diamond_stats(graph)
            assert suite_por.covered_action_names() == suite_ec.covered_action_names()
            rows.append((name, graph.num_states, len(suite_ec), len(suite_por),
                         f"{100 * (1 - len(suite_por) / len(suite_ec)):.0f}%",
                         stats["diamonds"], f"{t_ec:.2f}s", f"{t_por:.2f}s"))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation — partial order reduction",
        ("Model", "States", "PathEC", "PathEC+POR", "cut", "diamonds",
         "gen EC", "gen EC+POR"),
        rows,
    )

    # POR pays for itself: a real cut on both models
    for row in rows:
        assert row[3] < row[2]


def test_bench_ablation_coverage_strategy(benchmark, xraft_model, zab_model):
    """Node coverage vs edge coverage (Section 4.2.1's two strategies).

    Node coverage generates far fewer paths but misses action-level
    behaviours — the bench quantifies both the saving and the loss
    (distinct edges exercised).
    """
    from repro.core.testgen import edge_coverage_paths, node_coverage_paths

    def measure():
        rows = []
        for name, (spec, graph) in (("Xraft", xraft_model),
                                    ("ZooKeeper", zab_model)):
            edge_result = edge_coverage_paths(graph)
            node_result = node_coverage_paths(graph)
            edge_edges = {e.key() for p in edge_result.paths for e in p}
            node_edges = {e.key() for p in node_result.paths for e in p}
            rows.append((name, len(edge_result.paths), len(node_result.paths),
                         len(edge_edges), len(node_edges),
                         f"{100 * (1 - len(node_edges) / len(edge_edges)):.0f}%"))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation — edge vs node coverage",
        ("Model", "paths (edge)", "paths (node)", "edges hit (edge cov)",
         "edges hit (node cov)", "behaviours lost"),
        rows,
    )
    for row in rows:
        assert row[2] <= row[1]   # node coverage generates fewer paths
        assert row[4] < row[3]    # ...and exercises fewer behaviours


def test_bench_ablation_por_runtime(benchmark, xraft_model):
    """Wall-clock effect on actual controlled testing (fixed budget)."""
    spec, graph = xraft_model
    config = XraftConfig()
    tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                              lambda: make_xraft_cluster(("n1", "n2", "n3"), config))
    budget = 20

    def run(por):
        suite = generate_test_cases(graph, por=por)
        started = time.monotonic()
        outcome = tester.run_suite(suite, max_cases=budget)
        assert outcome.passed
        return time.monotonic() - started, suite

    (t_por, suite_por) = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    t_ec, suite_ec = run(False)
    full_ec = t_ec / budget * len(suite_ec)
    full_por = t_por / budget * len(suite_por)
    print_table(
        "Ablation — projected full-suite wall clock (Xraft model)",
        ("suite", "cases", f"measured ({budget} cases)", "projected full run"),
        [("EC", len(suite_ec), f"{t_ec:.1f}s", f"~{full_ec / 60:.1f} min"),
         ("EC+POR", len(suite_por), f"{t_por:.1f}s", f"~{full_por / 60:.1f} min")],
    )
    assert full_por < full_ec
