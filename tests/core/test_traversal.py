"""Tests for the edge-coverage-guided traversal (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testgen import edge_coverage_paths
from repro.tlaplus import ActionLabel, Specification, State, StateGraph, check


def _graph(edges, initial=(0,), n_states=None):
    """Build a graph from (src, dst, name) triples; states are {'id': i}."""
    graph = StateGraph("t")
    n = n_states or (max(max(s, d) for s, d, _ in edges) + 1 if edges else 1)
    for i in range(n):
        graph.add_state(State({"id": i}), initial=i in initial)
    for src, dst, name in edges:
        graph.add_edge(src, dst, ActionLabel(name))
    return graph


def _names(graph, indices):
    """Action names of the edges with these indices."""
    edges = graph.edges()
    return {edges[index].label.name for index in indices}


class TestEdgeCoverage:
    def test_single_chain(self):
        graph = _graph([(0, 1, "A"), (1, 2, "B")])
        result = edge_coverage_paths(graph)
        assert len(result.paths) == 1
        assert [e.label.name for e in result.paths[0]] == ["A", "B"]
        assert result.uncovered == set()

    def test_branching_produces_two_paths(self):
        graph = _graph([(0, 1, "A"), (0, 2, "B"), (1, 3, "C"), (2, 3, "D")])
        result = edge_coverage_paths(graph)
        assert len(result.paths) == 2
        assert result.uncovered == set()
        names = sorted(tuple(e.label.name for e in p) for p in result.paths)
        assert names == [("A", "C"), ("B", "D")]

    def test_every_edge_covered(self):
        graph = _graph([
            (0, 1, "A"), (0, 2, "B"), (1, 3, "C"), (2, 3, "D"),
            (3, 4, "E"), (3, 0, "Loop"),
        ])
        result = edge_coverage_paths(graph)
        # Paths share prefixes (Algorithm 1 emits root-to-leaf paths), but
        # each edge is *claimed* once, so within any single path an edge
        # appears at most once and the union covers everything reachable.
        for path in result.paths:
            keys = [e.key() for e in path]
            assert len(keys) == len(set(keys))
        seen = {e.key() for p in result.paths for e in p}
        assert len(seen) == graph.num_edges
        assert result.uncovered == set()

    def test_cycle_is_traversed_once(self):
        graph = _graph([(0, 1, "A"), (1, 0, "Back")])
        result = edge_coverage_paths(graph)
        assert len(result.paths) == 1
        assert [e.label.name for e in result.paths[0]] == ["A", "Back"]

    def test_self_loop(self):
        graph = _graph([(0, 0, "Spin"), (0, 1, "A")])
        result = edge_coverage_paths(graph)
        assert result.uncovered == set()
        seen = [e.key() for p in result.paths for e in p]
        assert len(set(seen)) == 2

    def test_end_states_cut_paths(self):
        graph = _graph([(0, 1, "A"), (1, 2, "B"), (2, 3, "C")])
        result = edge_coverage_paths(graph, end_state_ids={1})
        # the first path ends at state 1; edges B and C are never reached
        assert [e.label.name for e in result.paths[0]] == ["A"]
        assert _names(graph, result.uncovered) == {"B", "C"}

    def test_initial_end_state_does_not_block(self):
        graph = _graph([(0, 1, "A")])
        result = edge_coverage_paths(graph, end_state_ids={0})
        assert len(result.paths) == 1  # empty path is not a test case

    def test_excluded_edges_are_not_targets(self):
        graph = _graph([(0, 1, "A"), (0, 2, "B")])
        excluded = [e for e in graph.edges() if e.label.name == "B"]
        result = edge_coverage_paths(graph, excluded_edges=excluded)
        assert len(result.paths) == 1
        assert result.targets == {e.index for e in graph.edges() if e.label.name == "A"}
        assert result.uncovered == set()

    def test_max_paths_caps(self):
        graph = _graph([(0, i, f"A{i}") for i in range(1, 6)])
        result = edge_coverage_paths(graph, max_paths=2)
        assert len(result.paths) == 2

    def test_multiple_initial_states(self):
        graph = _graph([(0, 2, "A"), (1, 2, "B")], initial=(0, 1))
        result = edge_coverage_paths(graph)
        assert result.uncovered == set()
        starts = sorted(p[0].src for p in result.paths)
        assert starts == [0, 1]

    def test_unreachable_edges_reported_uncovered(self):
        graph = _graph([(0, 1, "A"), (2, 3, "B")])  # 2 not reachable from 0
        result = edge_coverage_paths(graph)
        assert _names(graph, result.uncovered) == {"B"}

    def test_paths_start_from_initial(self):
        graph = _graph([(0, 1, "A"), (1, 2, "B"), (2, 1, "C")])
        result = edge_coverage_paths(graph)
        for path in result.paths:
            assert path[0].src == 0

    def test_paths_are_contiguous(self):
        graph = _graph([
            (0, 1, "A"), (1, 2, "B"), (2, 0, "C"), (0, 2, "D"), (2, 3, "E"),
        ])
        result = edge_coverage_paths(graph)
        for path in result.paths:
            for prev, cur in zip(path, path[1:]):
                assert prev.dst == cur.src

    def test_example_spec_coverage(self):
        from repro.specs import build_example_spec

        graph = check(build_example_spec()).graph
        result = edge_coverage_paths(graph)
        assert result.uncovered == set()
        covered = {e.key() for p in result.paths for e in p}
        assert covered == {e.key() for e in graph.edges()}


# A small random-DAG-with-back-edges strategy for property testing.
@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edges = []
    k = draw(st.integers(min_value=1, max_value=14))
    for idx in range(k):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append((src, dst, f"E{idx}"))
    return _graph(edges, initial=(0,), n_states=n)


class TestTraversalProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_graph())
    def test_property_each_edge_at_most_once_and_reachables_covered(self, graph):
        result = edge_coverage_paths(graph)
        # within a single path, no edge repeats (each edge is claimed once)
        for path in result.paths:
            keys = [e.key() for e in path]
            assert len(keys) == len(set(keys))
        seen = [e.index for p in result.paths for e in p]
        # every covered edge is a target
        assert set(seen) <= result.targets
        # reachable edges are covered: compute reachability and compare
        reachable = set()
        frontier = [0]
        visited_nodes = {0}
        while frontier:
            node = frontier.pop()
            for edge in graph.out_edges(node):
                reachable.add(edge.index)
                if edge.dst not in visited_nodes:
                    visited_nodes.add(edge.dst)
                    frontier.append(edge.dst)
        assert set(seen) == reachable & result.targets

    @settings(max_examples=60, deadline=None)
    @given(random_graph())
    def test_property_paths_contiguous_from_initial(self, graph):
        result = edge_coverage_paths(graph)
        for path in result.paths:
            assert path[0].src == 0
            for prev, cur in zip(path, path[1:]):
                assert prev.dst == cur.src
