"""Canonical renumbering: discovery order must not matter."""

import pytest

from repro.engine import canonical_signature, canonicalize, graphs_equivalent
from repro.engine.fingerprint import encode_canonical
from repro.specs import build_example_spec
from repro.systems.catalog import get_model
from repro.tlaplus import FrozenDict, check
from repro.tlaplus.dot import parse_dot, to_dot
from repro.tlaplus.graph import StateGraph
from repro.tlaplus.state import ActionLabel, State


def _diamond(order):
    """A 4-state diamond built with states added in ``order``."""
    states = {name: State({"v": name}) for name in "abcd"}
    graph = StateGraph("diamond")
    ids = {}
    for name in order:
        ids[name] = graph.add_state(states[name], initial=(name == "a"))
    graph.add_edge(ids["a"], ids["b"], ActionLabel("Left", {}))
    graph.add_edge(ids["a"], ids["c"], ActionLabel("Right", {}))
    graph.add_edge(ids["b"], ids["d"], ActionLabel("Join", {}))
    graph.add_edge(ids["c"], ids["d"], ActionLabel("Join", {}))
    return graph


class TestCanonicalize:
    def test_insertion_order_is_erased(self):
        one = _diamond("abcd")
        two = _diamond("dcba")
        assert to_dot(canonicalize(one)) == to_dot(canonicalize(two))

    def test_preserves_content(self):
        graph = _diamond("abcd")
        canonical = canonicalize(graph)
        assert canonical.num_states == graph.num_states
        assert canonical.num_edges == graph.num_edges
        assert {s._vars["v"] for _, s in canonical.states()} == set("abcd")
        assert len(canonical.initial_ids) == 1

    def test_idempotent(self):
        graph = canonicalize(_diamond("cbda"))
        assert to_dot(canonicalize(graph)) == to_dot(graph)

    def test_unreachable_states_kept_last(self):
        graph = _diamond("abcd")
        orphan = graph.add_state(State({"v": "zz"}))
        canonical = canonicalize(graph)
        assert canonical.num_states == 5
        # the orphan sorts after the reachable component
        assert canonical.state_of(4)._vars["v"] == "zz"
        assert orphan is not None

    def test_checker_graph_roundtrip(self):
        graph = check(build_example_spec()).graph
        assert graphs_equivalent(graph, canonicalize(graph))

    def test_out_edges_come_in_canonical_order(self):
        # the conformance monitor indexes out-edges in this order as-is
        canonical = canonicalize(check(build_example_spec()).graph)
        for node_id, _ in canonical.states():
            keys = [(e.label.name, encode_canonical(e.label.params), e.dst)
                    for e in canonical.out_edges(node_id)]
            assert keys == sorted(keys)


class TestSignatures:
    def test_signature_ignores_discovery_order(self):
        assert canonical_signature(_diamond("abcd")) == \
            canonical_signature(_diamond("dbca"))

    def test_signature_sees_label_differences(self):
        one = _diamond("abcd")
        two = _diamond("abcd")
        two.add_edge(0, 0, ActionLabel("Loop", {}))
        assert canonical_signature(one) != canonical_signature(two)

    def test_equivalence_rejects_different_graphs(self):
        one = _diamond("abcd")
        two = _diamond("abcd")
        two.add_state(State({"v": "extra"}))
        assert not graphs_equivalent(one, two)

    def test_signature_value_is_pinned(self):
        # fuzz corpora store signatures: the value itself may not move
        assert canonical_signature(check(build_example_spec()).graph) == (
            "1d46059571e60a09828ba954200fdfe3741468a32c3654ef9690012571b38e04")


def _copy(graph, name=None, state=None, label=None, drop=None, initial=()):
    """A fresh graph with the same ids, optionally mutated: ``state`` maps
    ``(node id, State)`` and ``label`` maps ``(edge, ActionLabel)`` to the
    copy's, ``drop`` names an edge index to leave out, ``initial`` adds
    initial states."""
    copy = StateGraph(graph.spec_name if name is None else name)
    for node_id, value in graph.states():
        if state is not None:
            value = state(node_id, value)
        assert copy.add_state(
            value, initial=node_id in graph.initial_ids or node_id in initial
        ) == node_id
    for edge in graph.edges():
        if edge.index != drop:
            copy.add_edge(edge.src, edge.dst,
                          edge.label if label is None else label(edge, edge.label))
    return copy


def _one_to_true(value):
    """``value`` with every int ``1`` in it replaced by ``True``."""
    if type(value) is int and value == 1:
        return True
    if isinstance(value, FrozenDict):
        return FrozenDict({_one_to_true(k): _one_to_true(v)
                           for k, v in value.items()})
    if isinstance(value, tuple):
        return tuple(_one_to_true(item) for item in value)
    if isinstance(value, frozenset):
        return frozenset(_one_to_true(item) for item in value)
    return value


def _mutants(graph):
    """(description, mutated copy) pairs, each differing from ``graph``."""
    with_one = max(node_id for node_id, state in graph.states()
                   if encode_canonical(state._vars) !=
                   encode_canonical(_one_to_true(state._vars)))
    with_params = next(edge for edge in graph.edges() if edge.label.params)
    with_one_param = [edge for edge in graph.edges()
                      if encode_canonical(edge.label.params)
                      != encode_canonical(_one_to_true(edge.label.params))]
    not_initial = next(n for n, _ in graph.states() if n not in graph.initial_ids)
    mutants = [
        ("state value 1 -> True", _copy(graph, state=lambda n, s: State(
            _one_to_true(s._vars)) if n == with_one else s)),
        ("label parameter changed", _copy(graph, label=lambda e, l: ActionLabel(
            l.name, {k: "changed" for k in l.params})
            if e is with_params else l)),
        ("edge dropped", _copy(graph, drop=graph.num_edges // 2)),
        ("extra initial state", _copy(graph, initial={not_initial})),
        ("spec renamed", _copy(graph, name=graph.spec_name + "-renamed")),
    ]
    if with_one_param:
        mutants.append(("label 1 -> True", _copy(
            graph, label=lambda e, l: ActionLabel(
                l.name, dict(_one_to_true(l.params)))
            if e is with_one_param[0] else l)))
    return mutants


def _reference(left, right):
    """What ``graphs_equivalent`` must agree with."""
    return to_dot(canonicalize(left)) == to_dot(canonicalize(right))


class TestEquivalenceDifferential:
    @pytest.fixture(scope="class", params=["example", "raftkv"])
    def graph(self, request):
        return check(get_model(request.param)()).graph

    def test_equal_pairs(self, graph):
        reordered = StateGraph(graph.spec_name)
        ids = {}
        for node_id, state in reversed(list(graph.states())):
            ids[node_id] = reordered.add_state(
                state, initial=node_id in graph.initial_ids)
        for edge in reversed(graph.edges()):
            reordered.add_edge(ids[edge.src], ids[edge.dst], edge.label)
        unnamed = _copy(graph, name="")
        for left, right in ((graph, graph), (graph, _copy(graph)),
                            (graph, reordered), (graph, canonicalize(graph)),
                            (graph, parse_dot(to_dot(graph))),
                            (unnamed, _copy(graph, name="state_space"))):
            assert _reference(left, right)
            assert graphs_equivalent(left, right)
            assert graphs_equivalent(right, left)

    def test_mutated_pairs(self, graph):
        mutants = _mutants(graph)
        assert len(mutants) >= 5
        for description, mutant in mutants:
            assert not _reference(graph, mutant), description
            assert not graphs_equivalent(graph, mutant), description
            assert not graphs_equivalent(mutant, graph), description
