"""Soundness of the static independence certificates.

``mocket analyze`` publishes, per spec, the action pairs the effect
analysis certifies as commutative (disjoint write/write and write/read
footprints).  POR does not read them — it verifies every diamond's join
on the graph — so this is the check that a published certificate is
true: wherever two certified actions are both enabled and each stays
enabled after the other, the two interleavings reach the same states.
A footprint that misses a read (say ``state.get("x")`` beside a writer
of ``x``) certifies a conflicting pair and fails here.
"""

import pytest

from repro.analysis.effects import analyze_spec
from repro.specs import build_example_spec
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.tlaplus import check

# the four `mocket testgen` models plus a three-node raft with restarts
MODELS = {
    "example": lambda: build_example_spec(),
    "xraft": lambda: build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",),
        name="xraft-model")),
    "raftkv": lambda: build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",),
        enable_drop=False, enable_duplicate=False, name="raftkv-model")),
    "zab": lambda: build_zab_spec(ZabSpecOptions(
        max_elections=1, max_crashes=0, max_restarts=0, starters=("n3",),
        name="zab-model")),
    "raft-guard": lambda: build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=True, max_restarts=1,
        enable_drop=False, enable_duplicate=False,
        candidates=("n1",), name="raft-guard")),
}

#: models where certified pairs are co-enabled, so the test checks
#: joins; example certifies nothing, and raftkv and raft-guard certify
#: only AdvanceCommitIndex/RequestVote, which no state enables together
CO_ENABLED = ("xraft", "zab")


def unjoined_certified_pairs(graph, relation):
    """``(state, label_a, label_b)`` for every two out-edges of a state
    whose action names ``relation`` certifies, whose second hops both
    exist, and whose interleavings reach different states; and the
    number of such edge pairs checked."""
    adjacency = graph.adjacency()

    def successors(node_id, label):
        return {edge.dst for edge in adjacency[node_id] if edge.label == label}

    bad, checked = [], 0
    for node_id in range(graph.num_states):
        out = adjacency[node_id]
        for i, edge_a in enumerate(out):
            for edge_b in out[i + 1:]:
                if (edge_a.label == edge_b.label or not relation.certified(
                        edge_a.label.name, edge_b.label.name)):
                    continue
                via_a = successors(edge_a.dst, edge_b.label)
                via_b = successors(edge_b.dst, edge_a.label)
                if not via_a or not via_b:
                    continue
                checked += 1
                if via_a != via_b:
                    bad.append((node_id, edge_a.label, edge_b.label))
    return bad, checked


@pytest.mark.parametrize("model", sorted(MODELS))
def test_certified_pairs_join_on_the_graph(model):
    spec = MODELS[model]()
    relation = analyze_spec(spec).independence()
    bad, checked = unjoined_certified_pairs(check(spec).graph, relation)
    assert not bad, f"{len(bad)} of {checked} certified pairs do not join: " \
                    f"{bad[:3]}"
    if model in CO_ENABLED:
        assert checked > 0
