"""Coverage fingerprinting: content-anchored state/edge fps, case and
run coverage extraction, and the graph fingerprint index."""

from repro.core import ControlledTester, generate_test_cases
from repro.core.testbed.report import SuiteResult, TestCaseResult
from repro.core.testgen.testcase import TestCase
from repro.engine.fingerprint import fingerprint_state
from repro.fuzz import (
    Coverage,
    GraphIndex,
    case_coverage,
    edge_fingerprint,
    format_fp,
    run_coverage,
)
from repro.obs import TRACER
from repro.systems.catalog import RUNNER, kit
from repro.tlaplus import check


class TestGraphIndex:
    def test_population_matches_graph_size(self, toykit):
        _mapping, _factory, graph, _suite = toykit
        index = GraphIndex(graph)
        assert len(index.state_fps) == graph.num_states
        assert len(index.edge_fp_by_index) == graph.num_edges
        assert index.num_states == graph.num_states
        assert index.num_edges == graph.num_edges

    def test_state_fp_is_content_anchored(self, toykit):
        _mapping, _factory, graph, _suite = toykit
        index = GraphIndex(graph)
        for node_id, state in graph.states():
            assert index.state_fp_of(node_id) == fingerprint_state(state)

    def test_edge_fp_matches_manual_fingerprint(self, toykit):
        _mapping, _factory, graph, _suite = toykit
        index = GraphIndex(graph)
        edge = next(iter(graph.edges()))
        expected = edge_fingerprint(
            fingerprint_state(graph.state_of(edge.src)), edge.label,
            fingerprint_state(graph.state_of(edge.dst)))
        assert index.edge_fp(edge) == expected

    def test_uncovered_out_edges_shrinks_with_coverage(self, toykit):
        _mapping, _factory, graph, _suite = toykit
        index = GraphIndex(graph)
        node_id = next(nid for nid, _ in graph.states()
                       if graph.out_edges(nid))
        everything = index.uncovered_out_edges(node_id, set())
        assert everything
        first_fp = index.edge_fp(everything[0])
        fewer = index.uncovered_out_edges(node_id, {first_fp})
        assert len(fewer) == len(everything) - 1


class TestCaseCoverage:
    def test_case_coverage_lies_inside_the_graph(self, toykit):
        _mapping, _factory, graph, suite = toykit
        index = GraphIndex(graph)
        for case in suite:
            coverage = case_coverage(case, index=index)
            assert coverage.states <= index.all_states
            assert coverage.edges <= index.all_edges
            assert len(coverage.edges) >= 1

    def test_executed_prefix_is_monotone(self, toykit):
        _mapping, _factory, graph, suite = toykit
        case = suite.cases[0]
        full = case_coverage(case)
        prefix = case_coverage(case, executed=1)
        assert prefix.states <= full.states
        assert prefix.edges <= full.edges
        assert len(prefix.edges) == 1

    def test_zero_executed_still_counts_the_initial_state(self, toykit):
        _mapping, _factory, _graph, suite = toykit
        case = suite.cases[0]
        coverage = case_coverage(case, executed=0)
        assert coverage.states == {fingerprint_state(case.initial_state)}
        assert not coverage.edges

    def test_coverage_ignores_case_numbering(self, toykit):
        _mapping, _factory, _graph, suite = toykit
        case = suite.cases[0]
        renumbered = TestCase(case.case_id + 71, case.initial_state,
                              case.steps, case.initial_id)
        original = case_coverage(case)
        moved = case_coverage(renumbered)
        assert original.states == moved.states
        assert original.edges == moved.edges


class TestRunCoverage:
    def test_divergent_case_contributes_only_its_prefix(self, toykit):
        _mapping, _factory, graph, suite = toykit
        case = suite.cases[0]
        full = SuiteResult(
            [TestCaseResult(case, None, len(case.steps), 0.1)], 0.1)
        partial = SuiteResult([TestCaseResult(case, None, 1, 0.1)], 0.1)
        assert len(run_coverage(partial).edges) == 1
        assert run_coverage(partial).edges <= run_coverage(full).edges

    def test_union_over_cases(self, toykit):
        _mapping, _factory, graph, suite = toykit
        results = [TestCaseResult(case, None, len(case.steps), 0.1)
                   for case in suite.cases[:2]]
        union = run_coverage(SuiteResult(results, 0.2))
        per_case = Coverage()
        for case in suite.cases[:2]:
            per_case.update(case_coverage(case))
        assert union.states == per_case.states
        assert union.edges == per_case.edges

    def test_traced_run_records_the_same_fingerprints(self):
        # the runner's runner.step fingerprints (what `trace summarize`
        # counts) and run_coverage (fuzz corpus, triage) are two
        # producers of one value
        spec, mapping, factory = kit("raftkv")
        graph = check(spec).graph
        suite = generate_test_cases(graph, por=True, seed=0).truncated(3)
        tester = ControlledTester(mapping, graph, factory, RUNNER)
        TRACER.reset()
        TRACER.configure(enabled=True)
        try:
            outcome = tester.run_suite(suite)
            steps = [event.fields for event in TRACER.events("runner.step")]
        finally:
            TRACER.disable()
            TRACER.reset()
        assert outcome.passed and len(steps) == suite.total_actions()
        coverage = run_coverage(outcome)
        assert {step["edge_fp"] for step in steps} == \
            {format_fp(fp) for fp in coverage.edges}
        assert ({step["src_fp"] for step in steps}
                | {step["dst_fp"] for step in steps}) == \
            {format_fp(fp) for fp in coverage.states}


class TestCoverageSerialization:
    def test_roundtrip_is_exact(self):
        coverage = Coverage(states=(3, 2 ** 63 + 5), edges=(17,))
        clone = Coverage.from_jsonable(coverage.to_jsonable())
        assert clone.states == coverage.states
        assert clone.edges == coverage.edges

    def test_serialized_form_is_sorted_fixed_width_hex(self):
        payload = Coverage(states=(255, 1), edges=()).to_jsonable()
        assert payload["states"] == [format_fp(1), format_fp(255)]
        assert all(len(fp) == 16 for fp in payload["states"])

    def test_new_against_reports_only_novel_fps(self):
        coverage = Coverage(states=(1, 2), edges=(10, 11))
        new_states, new_edges = coverage.new_against({1: 3}, {10: 1})
        assert new_states == {2}
        assert new_edges == {11}
