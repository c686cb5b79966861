"""Deterministic canonical renumbering of state graphs.

Two graphs of the same specification can hold the same states and
edges in different orders (a checkpoint written by an explorer that
discovered in another order, or a graph reloaded from a DOT dump with
renumbered nodes).
:func:`canonicalize` renumbers any :class:`StateGraph` into a canonical
form that depends only on the graph's *content* — the state set, the
edge multiset and the initial states — never on discovery order:

* initial states are ordered by their canonical byte encoding,
* nodes are assigned ids by a BFS that walks out-edges sorted by
  ``(action name, encoded params, encoded destination state)``,
* unreachable nodes (possible in hand-built graphs) come last, ordered
  by encoding,
* edges are inserted sorted by ``(src, action name, encoded params,
  dst)`` so edge indices are canonical too.

Two graphs hold the same states/edges/labels iff their canonical forms
render to identical DOT text; :func:`canonical_signature` hashes that
text for cheap comparison and :func:`graphs_equivalent` wraps the
comparison.  Everything that consumes graph *ordering* across runs —
fault plans, fuzz corpora, conformance verdicts — renumbers through
here first.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, List, Tuple

from ..tlaplus.dot import to_dot
from ..tlaplus.graph import Edge, StateGraph
from ..tlaplus.state import ActionLabel
from .fingerprint import canonical_state, canonical_value, encode_canonical

__all__ = ["canonical_signature", "canonicalize", "graphs_equivalent"]


def canonicalize(graph: StateGraph) -> StateGraph:
    """Return a renumbered copy of ``graph`` independent of discovery order."""
    order: List[int] = []          # old ids in canonical visit order
    assigned: Dict[int, int] = {}  # old id -> canonical id
    # encode each state and each label object once, not once per edge.
    # Labels are keyed by identity: equal labels may still encode
    # differently (``1 == True``), and the checker shares one label
    # object among all the edges of a constant-domain binding anyway
    state_keys = [encode_canonical(state._vars) for _, state in graph.states()]
    labels: Dict[int, Tuple[bytes, ActionLabel]] = {}
    for edge in graph.edges():
        label = edge.label
        if id(label) not in labels:
            labels[id(label)] = (encode_canonical(label.params), ActionLabel(
                label.name, dict(canonical_value(label.params))))

    def edge_key(edge: Edge) -> Tuple[str, bytes, bytes]:
        return (edge.label.name, labels[id(edge.label)][0],
                state_keys[edge.dst])

    def visit(old_id: int) -> None:
        assigned[old_id] = len(order)
        order.append(old_id)

    queue: List[int] = []
    for old_id in sorted(graph.initial_ids, key=state_keys.__getitem__):
        if old_id not in assigned:
            visit(old_id)
            queue.append(old_id)
    cursor = 0
    while cursor < len(queue):
        old_id = queue[cursor]
        cursor += 1
        for edge in sorted(graph.out_edges(old_id), key=edge_key):
            if edge.dst not in assigned:
                visit(edge.dst)
                queue.append(edge.dst)
    # hand-built graphs may hold states unreachable from Init
    leftovers = [n for n, _ in graph.states() if n not in assigned]
    for old_id in sorted(leftovers, key=state_keys.__getitem__):
        visit(old_id)

    canonical = StateGraph(graph.spec_name)
    initial = set(graph.initial_ids)
    for old_id in order:
        # rebuild values in canonical container order too: equal states
        # must also *render* identically (set/dict iteration order is
        # insertion-dependent and would leak into the DOT text)
        canonical.add_state(canonical_state(graph.state_of(old_id)),
                            initial=old_id in initial)
    renumbered = sorted(
        ((assigned[e.src], e.label.name, labels[id(e.label)][0],
          assigned[e.dst], e.label) for e in graph.edges()),
    )
    for src, _name, _params, dst, label in renumbered:
        canonical.add_edge(src, dst, labels[id(label)][1])
    canonical.refused_ids = {assigned[n] for n in graph.refused_ids}
    return canonical


def canonical_signature(graph: StateGraph) -> str:
    """A content hash of the canonical form (hex digest)."""
    return sha256(to_dot(canonicalize(graph)).encode("utf-8")).hexdigest()


def graphs_equivalent(left: StateGraph, right: StateGraph) -> bool:
    """True iff both graphs hold the same states, edges and initial set."""
    return to_dot(canonicalize(left)) == to_dot(canonicalize(right))
