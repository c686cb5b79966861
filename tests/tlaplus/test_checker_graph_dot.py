"""Tests for the model checker, the state graph and DOT round-trips."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlaplus import (
    ActionLabel,
    CheckingBudgetExceeded,
    DotParseError,
    Specification,
    State,
    StateGraph,
    check,
    parse_dot,
    read_dot,
    to_dot,
    write_dot,
)
from repro.tlaplus.dot import _Renderer, decode_value, encode_value
from repro.tlaplus.values import FrozenDict, freeze


def _reference_tag(value):
    """The tagged literal, built recursively with no memo."""
    if isinstance(value, FrozenDict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return ("$dict", tuple((_reference_tag(k), _reference_tag(v))
                               for k, v in items))
    if isinstance(value, tuple):
        return ("$tuple", tuple(_reference_tag(v) for v in value))
    if isinstance(value, frozenset):
        return ("$set", tuple(sorted((_reference_tag(v) for v in value),
                                     key=repr)))
    return value


def _reference_pretty(value):
    """The ``label=`` text, built recursively with no memo."""
    if isinstance(value, FrozenDict):
        entries = sorted((_reference_pretty(k), _reference_pretty(v))
                         for k, v in value.items())
        return "FrozenDict({%s})" % ", ".join(f"{k}: {v}" for k, v in entries)
    if isinstance(value, frozenset):
        if not value:
            return "frozenset()"
        return "frozenset({%s})" % ", ".join(sorted(map(_reference_pretty, value)))
    if isinstance(value, tuple):
        body = ", ".join(map(_reference_pretty, value))
        return f"({body},)" if len(value) == 1 else f"({body})"
    return repr(value)


def _counter_spec(limit=3):
    spec = Specification("counter", constants={"Limit": limit})
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1}

    @spec.action()
    def Reset(state, const):
        if state.n == 0:
            return None
        return {"n": 0}

    return spec


class TestModelChecker:
    def test_counter_space(self):
        result = check(_counter_spec(limit=3))
        assert result.ok and result.complete
        # states: n = 0..3; edges: 3 Incr + 3 Reset
        assert result.graph.num_states == 4
        assert result.graph.num_edges == 6
        assert result.diameter == 3

    def test_initial_state_marked(self):
        result = check(_counter_spec())
        assert result.graph.initial_ids == [0]
        assert result.graph.state_of(0).n == 0

    def test_invariant_violation_has_trace(self):
        spec = _counter_spec(limit=5)

        @spec.invariant()
        def Small(state, const):
            return state.n < 2

        result = check(spec)
        assert not result.ok
        violation = result.violation
        assert violation.invariant_name == "Small"
        assert violation.state.n == 2
        labels = [label for label, _ in violation.trace]
        assert labels == [None, ActionLabel("Incr"), ActionLabel("Incr")]

    def test_violation_in_initial_state(self):
        spec = _counter_spec()

        @spec.invariant()
        def Impossible(state, const):
            return False

        result = check(spec)
        assert not result.ok
        assert len(result.violation.trace) == 1

    def test_continue_after_violation(self):
        spec = _counter_spec(limit=3)

        @spec.invariant()
        def Small(state, const):
            return state.n < 2

        result = check(spec, stop_on_violation=False)
        assert not result.ok
        assert result.graph.num_states == 4  # exploration still completed

    def test_state_budget_raises(self):
        with pytest.raises(CheckingBudgetExceeded):
            check(_counter_spec(limit=100), max_states=10)

    def test_state_budget_truncates(self):
        result = check(_counter_spec(limit=100), max_states=10, truncate=True)
        assert not result.complete
        assert result.graph.num_states == 10

    def test_deterministic_discovery_order(self):
        g1 = check(_counter_spec()).graph
        g2 = check(_counter_spec()).graph
        assert [s.as_dict() for _, s in g1.states()] == [s.as_dict() for _, s in g2.states()]

    def test_example_spec_matches_figure2(self):
        from repro.specs import build_example_spec

        result = check(build_example_spec(data=(1, 2)))
        assert result.ok and result.complete
        assert result.graph.num_states == 13


class TestStateGraph:
    def _small_graph(self):
        graph = StateGraph("g")
        a = graph.add_state(State({"n": 0}), initial=True)
        b = graph.add_state(State({"n": 1}))
        graph.add_edge(a, b, ActionLabel("Incr"))
        graph.add_edge(b, a, ActionLabel("Reset"))
        return graph, a, b

    def test_interning_deduplicates(self):
        graph = StateGraph()
        first = graph.add_state(State({"n": 0}))
        second = graph.add_state(State({"n": 0}))
        assert first == second
        assert graph.num_states == 1

    def test_duplicate_edge_is_noop(self):
        graph, a, b = self._small_graph()
        assert graph.add_edge(a, b, ActionLabel("Incr")) is None
        assert graph.num_edges == 2

    def test_parallel_edges_with_distinct_labels(self):
        graph, a, b = self._small_graph()
        assert graph.add_edge(a, b, ActionLabel("Jump")) is not None
        assert len(graph.out_edges(a)) == 2

    def test_queries(self):
        graph, a, b = self._small_graph()
        assert graph.successors(a) == [b]
        assert [e.src for e in graph.edges() if e.dst == a] == [b]
        assert graph.enabled_labels(a) == [ActionLabel("Incr")]
        assert graph.edge_between(a, b, ActionLabel("Incr")) is not None
        assert graph.edge_between(a, b, ActionLabel("Nope")) is None
        assert graph.action_names() == {"Incr", "Reset"}
        assert graph.terminal_ids() == []

    def test_terminal_states(self):
        graph = StateGraph()
        a = graph.add_state(State({"n": 0}), initial=True)
        b = graph.add_state(State({"n": 1}))
        graph.add_edge(a, b, ActionLabel("Go"))
        assert graph.terminal_ids() == [b]

    def test_stats(self):
        graph, _, _ = self._small_graph()
        assert graph.stats() == {
            "states": 2, "edges": 2, "initial": 1, "terminal": 0, "actions": 2,
        }

    def test_to_networkx(self):
        graph, a, b = self._small_graph()
        nxg = graph.to_networkx()
        assert nxg.number_of_nodes() == 2
        assert nxg.number_of_edges() == 2
        assert nxg.nodes[a]["initial"] is True


class TestDot:
    def test_encode_decode_scalars(self):
        for value in [1, "x", None, True, -3]:
            assert decode_value(encode_value(freeze(value))) == value

    def test_encode_decode_containers(self):
        value = freeze({"bag": {("a", 1): 2}, "set": {1, 2}, "seq": [1, [2, 3]]})
        assert decode_value(encode_value(value)) == value

    def test_decode_garbage_raises(self):
        with pytest.raises(DotParseError):
            decode_value("not a literal [")

    def test_memoized_texts_match_the_recursive_reference(self):
        shared = freeze({"k": (1,)})
        values = [
            FrozenDict(), (), frozenset(), (1,), ("it's", b"\x00", 2.5, None),
            freeze({"a": [True, 1], "b": {frozenset({("x", 1)}), 3}}),
            FrozenDict({shared: 1, freeze({"k": ()}): 2}),
            freeze({"one": shared, "two": [shared, {shared}]}),
        ]
        render = _Renderer()
        for value in values:
            assert encode_value(value) == repr(_reference_tag(value))
            assert render.tagged(value) == repr(_reference_tag(value))
            assert render.pretty(value) == _reference_pretty(value)

    def test_roundtrip_counter(self):
        graph = check(_counter_spec()).graph
        parsed = parse_dot(to_dot(graph))
        assert parsed.num_states == graph.num_states
        assert parsed.num_edges == graph.num_edges
        assert parsed.initial_ids == graph.initial_ids
        for node_id, state in graph.states():
            assert parsed.state_of(node_id) == state
        assert {e.key() for e in parsed.edges()} == {e.key() for e in graph.edges()}

    def test_roundtrip_example_spec(self):
        from repro.specs import build_example_spec

        graph = check(build_example_spec()).graph
        parsed = parse_dot(to_dot(graph))
        assert parsed.num_states == 13
        assert {e.key() for e in parsed.edges()} == {e.key() for e in graph.edges()}

    def test_file_roundtrip(self, tmp_path):
        graph = check(_counter_spec()).graph
        path = tmp_path / "space.dot"
        write_dot(graph, str(path))
        parsed = read_dot(str(path))
        assert parsed.num_states == graph.num_states

    def test_stream_roundtrip(self):
        graph = check(_counter_spec()).graph
        buffer = io.StringIO()
        write_dot(graph, buffer)
        buffer.seek(0)
        assert read_dot(buffer).num_edges == graph.num_edges

    def test_quotes_in_values_survive(self):
        graph = StateGraph('tricky "name"')
        graph.add_state(State({"s": 'he said "hi"'}), initial=True)
        parsed = parse_dot(to_dot(graph))
        assert parsed.spec_name == 'tricky "name"'
        assert parsed.state_of(0).s == 'he said "hi"'

    def test_parse_rejects_bad_header(self):
        with pytest.raises(DotParseError):
            parse_dot("graph {}\n")

    def test_parse_rejects_unknown_line(self):
        graph = check(_counter_spec(limit=1)).graph
        text = to_dot(graph).replace("}", "junk line\n}")
        with pytest.raises(DotParseError):
            parse_dot(text)

    def test_parse_rejects_dangling_edge(self):
        text = 'digraph "g" {\n  0 -> 1 [label="A" params="(\'$dict\', ())"];\n}\n'
        with pytest.raises(DotParseError):
            parse_dot(text)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_property_roundtrip_any_counter_limit(self, limit):
        graph = check(_counter_spec(limit=limit)).graph
        parsed = parse_dot(to_dot(graph))
        assert parsed.num_states == graph.num_states
        assert {e.key() for e in parsed.edges()} == {e.key() for e in graph.edges()}
