"""Canonical renumbering: discovery order must not matter."""

from repro.engine import canonical_signature, canonicalize, graphs_equivalent
from repro.engine.fingerprint import encode_canonical
from repro.specs import build_example_spec
from repro.tlaplus import check
from repro.tlaplus.dot import to_dot
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
