"""Tests for partial order reduction, end states and suite generation."""

import pytest

from repro.core.testgen import (
    TestCase,
    TestSuite,
    diamond_stats,
    edge_coverage_paths,
    find_diamonds,
    generate_test_cases,
    node_ids,
    por_excluded_edges,
    reached_by,
    state_matching,
    terminal_only,
    union,
)
from repro.tlaplus import ActionLabel, State, StateGraph, check


def _graph(edges, initial=(0,), n_states=None):
    graph = StateGraph("t")
    n = n_states or (max(max(s, d) for s, d, _ in edges) + 1 if edges else 1)
    for i in range(n):
        graph.add_state(State({"id": i}), initial=i in initial)
    for src, dst, name in edges:
        graph.add_edge(src, dst, ActionLabel(name))
    return graph


def _diamond_graph():
    """s0 -A-> s1 -B-> s3  and  s0 -B-> s2 -A-> s3."""
    return _graph([(0, 1, "A"), (1, 3, "B"), (0, 2, "B"), (2, 3, "A")])


class TestDiamonds:
    def test_finds_the_diamond(self):
        diamonds = find_diamonds(_diamond_graph())
        assert len(diamonds) == 1
        diamond = diamonds[0]
        assert diamond.origin == 0
        assert diamond.join == 3
        assert {diamond.first_a.label.name, diamond.first_b.label.name} == {"A", "B"}

    def test_no_diamond_when_joins_differ(self):
        graph = _graph([(0, 1, "A"), (1, 3, "B"), (0, 2, "B"), (2, 4, "A")])
        assert find_diamonds(graph) == []

    def test_no_diamond_for_same_label(self):
        # A(i=1)/A(i=1) pairs are skipped; distinct params form a diamond
        graph = StateGraph("t")
        for i in range(4):
            graph.add_state(State({"id": i}), initial=i == 0)
        graph.add_edge(0, 1, ActionLabel("A", {"i": 1}))
        graph.add_edge(1, 3, ActionLabel("A", {"i": 2}))
        graph.add_edge(0, 2, ActionLabel("A", {"i": 2}))
        graph.add_edge(2, 3, ActionLabel("A", {"i": 1}))
        assert len(find_diamonds(graph)) == 1

    def test_no_diamond_on_shared_destination(self):
        graph = _graph([(0, 1, "A"), (0, 1, "B")])
        assert find_diamonds(graph) == []

    def test_excludes_one_second_hop(self):
        graph = _diamond_graph()
        dropped = por_excluded_edges(graph, seed=1)
        assert len(dropped) == 1
        (edge,) = dropped
        assert edge.src in (1, 2) and edge.dst == 3

    def test_deterministic_given_seed(self):
        graph = _diamond_graph()
        assert {e.key() for e in por_excluded_edges(graph, seed=5)} == {
            e.key() for e in por_excluded_edges(graph, seed=5)
        }

    def test_traversal_with_por_covers_remaining(self):
        graph = _diamond_graph()
        dropped = por_excluded_edges(graph, seed=0)
        result = edge_coverage_paths(graph, excluded_edges=dropped)
        assert result.uncovered == set()
        # exactly one interleaving reaches the join state via 2 hops
        two_hoppers = [p for p in result.paths if len(p) == 2]
        assert len(two_hoppers) == 1

    def test_chained_diamonds_keep_one_order_each(self):
        # two independent diamonds: s0..s3 and s3..s6
        graph = _graph([
            (0, 1, "A"), (1, 3, "B"), (0, 2, "B"), (2, 3, "A"),
            (3, 4, "C"), (4, 6, "D"), (3, 5, "D"), (5, 6, "C"),
        ])
        dropped = por_excluded_edges(graph, seed=3)
        assert len(dropped) == 2
        result = edge_coverage_paths(graph, excluded_edges=dropped)
        assert result.uncovered == set()

    def test_stats(self):
        stats = diamond_stats(_diamond_graph())
        assert stats == {"diamonds": 1, "excluded_edges": 1}


class TestPorProperties:
    """Hypothesis: POR's exclusions are sound on arbitrary graphs."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from("ABC")),
        min_size=1, max_size=14,
    ))
    def test_property_por_keeps_one_interleaving_per_diamond(self, triples):
        graph = _graph([(s, d, n) for s, d, n in triples], n_states=6)
        dropped = {e.key() for e in por_excluded_edges(graph, seed=1)}
        for diamond in find_diamonds(graph):
            a, b = diamond.second_a.key(), diamond.second_b.key()
            # never both interleavings dropped
            assert not (a in dropped and b in dropped)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from("ABC")),
        min_size=1, max_size=14,
    ), st.integers(0, 100))
    def test_property_exclusions_are_second_hops(self, triples, seed):
        graph = _graph([(s, d, n) for s, d, n in triples], n_states=6)
        dropped = por_excluded_edges(graph, seed=seed)
        second_hops = set()
        for diamond in find_diamonds(graph):
            second_hops.add(diamond.second_a.key())
            second_hops.add(diamond.second_b.key())
        assert {e.key() for e in dropped} <= second_hops

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from("AB")),
        min_size=1, max_size=12,
    ), st.integers(0, 50))
    def test_property_traversal_with_por_stays_sound(self, triples, seed):
        graph = _graph([(s, d, n) for s, d, n in triples], n_states=6)
        dropped = por_excluded_edges(graph, seed=seed)
        result = edge_coverage_paths(graph, excluded_edges=dropped)
        dropped_keys = {e.key() for e in dropped}
        for path in result.paths:
            assert path[0].src == 0
            for edge in path:
                assert edge.key() not in dropped_keys


class TestEndStateSpecs:
    def test_reached_by(self):
        graph = _graph([(0, 1, "BecomeLeader"), (1, 2, "Other")])
        assert reached_by("BecomeLeader")(graph) == {1}

    def test_state_matching(self):
        graph = _graph([(0, 1, "A")])
        assert state_matching(lambda s: s.id == 1)(graph) == {1}

    def test_terminal_only(self):
        graph = _graph([(0, 1, "A")])
        assert terminal_only()(graph) == {1}

    def test_node_ids_filters_out_of_range(self):
        graph = _graph([(0, 1, "A")])
        assert node_ids([1, 99])(graph) == {1}

    def test_union(self):
        graph = _graph([(0, 1, "A"), (1, 2, "B")])
        combined = union(reached_by("A"), terminal_only())
        assert combined(graph) == {1, 2}


class TestTestCase:
    def test_from_edges_builds_expected_states(self):
        graph = _graph([(0, 1, "A"), (1, 2, "B")])
        path = [graph.out_edges(0)[0], graph.out_edges(1)[0]]
        case = TestCase.from_edges(7, graph, path)
        assert case.case_id == 7
        assert case.initial_state.id == 0
        assert [s.expected_state.id for s in case.steps] == [1, 2]
        assert case.final_id == 2
        assert case.action_names() == ["A", "B"]
        assert len(case) == 2

    def test_from_edges_requires_initial_start(self):
        graph = _graph([(0, 1, "A"), (1, 2, "B")])
        with pytest.raises(ValueError):
            TestCase.from_edges(0, graph, [graph.out_edges(1)[0]])

    def test_from_edges_requires_contiguity(self):
        graph = _graph([(0, 1, "A"), (0, 2, "B"), (2, 3, "C")])
        bad = [graph.out_edges(0)[0], graph.out_edges(2)[0]]
        with pytest.raises(ValueError):
            TestCase.from_edges(0, graph, bad)

    def test_from_edges_rejects_empty(self):
        graph = _graph([(0, 1, "A")])
        with pytest.raises(ValueError):
            TestCase.from_edges(0, graph, [])

    def test_steps_materialise_once_on_first_access(self):
        lookups = []

        class CountingGraph(StateGraph):
            def state_of(self, node_id):
                lookups.append(node_id)
                return super().state_of(node_id)

        graph = CountingGraph("t")
        for i in range(3):
            graph.add_state(State({"id": i}), initial=i == 0)
        graph.add_edge(0, 1, ActionLabel("A"))
        graph.add_edge(1, 2, ActionLabel("B"))
        case = TestCase.from_edges(0, graph, [graph.out_edges(0)[0],
                                              graph.out_edges(1)[0]])
        suite = TestSuite([case], graph=graph)
        assert lookups == [0]            # the initial state only
        assert (len(case), suite.total_actions(), case.final_id) == (2, 2, 2)
        assert lookups == [0]
        assert [s.dst_id for s in case.steps] == [1, 2]
        assert case.steps is case.steps
        assert lookups == [0, 1, 2]

    def test_describe(self):
        graph = _graph([(0, 1, "A")])
        case = TestCase.from_edges(0, graph, graph.out_edges(0))
        assert case.describe() == "s0 -> A() -> s1"

    def test_jsonable_roundtrip(self):
        import json

        graph = _graph([(0, 1, "A"), (1, 2, "B")])
        case = TestCase.from_edges(3, graph, [graph.out_edges(0)[0], graph.out_edges(1)[0]])
        payload = json.loads(json.dumps(case.to_jsonable()))
        restored = TestCase.from_jsonable(payload)
        assert restored.case_id == 3
        assert restored.labels() == case.labels()
        assert [s.expected_state for s in restored.steps] == [
            s.expected_state for s in case.steps
        ]


class TestGenerateTestCases:
    def test_example_spec_suite(self):
        from repro.specs import build_example_spec

        graph = check(build_example_spec()).graph
        suite_ec = generate_test_cases(graph, por=False)
        suite_por = generate_test_cases(graph, por=True)
        assert len(suite_ec) >= 1
        assert suite_ec.total_actions() >= graph.num_edges
        # POR never increases the suite size
        assert len(suite_por) <= len(suite_ec)
        assert suite_ec.uncovered_edges == 0

    def test_cases_numbered_sequentially(self):
        graph = _graph([(0, 1, "A"), (0, 2, "B")])
        suite = generate_test_cases(graph)
        assert [case.case_id for case in suite] == list(range(len(suite)))

    def test_max_cases(self):
        graph = _graph([(0, i, f"A{i}") for i in range(1, 6)])
        suite = generate_test_cases(graph, max_cases=3)
        assert len(suite) == 3

    def test_end_states_respected(self):
        graph = _graph([(0, 1, "Elect"), (1, 2, "After")])
        suite = generate_test_cases(graph, end_states=reached_by("Elect"), por=False)
        assert all(case.action_names() == ["Elect"] for case in suite)

    def test_suite_stats_and_helpers(self):
        graph = _diamond_graph()
        suite = generate_test_cases(graph, por=True, seed=0)
        stats = suite.stats()
        assert stats["excluded_edges"] == 1
        assert suite.covered_action_names() == {"A", "B"}
        assert suite[0] is suite.cases[0]
