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
text.  :func:`graphs_equivalent` decides the same question without
rendering: a canonical state's DOT text is a function of its canonical
encoding and vice versa, so it compares the two visit orders'
encodings and the renumbered edge lists directly.  Everything that
consumes graph *ordering* across runs — fault plans, fuzz corpora,
conformance verdicts — renumbers through here first.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, List, Tuple

from ..tlaplus.dot import to_dot
from ..tlaplus.graph import Edge, StateGraph
from ..tlaplus.state import ActionLabel
from .fingerprint import Memo, canonical_state, canonical_value, encode_canonical

__all__ = ["canonical_signature", "canonicalize", "graphs_equivalent"]


class _Form:
    """A graph's canonical numbering, derived from encodings alone."""

    __slots__ = ("order", "assigned", "state_keys", "labels", "edges")

    def __init__(self, graph: StateGraph, encoded: Memo):
        self.order: List[int] = []          # old ids in canonical visit order
        self.assigned: Dict[int, int] = {}  # old id -> canonical id
        # encode each state and each label object once, not once per
        # edge; ``encoded`` shares the encoding of every sub-value the
        # states have in common.  Labels are keyed by identity: equal
        # labels may still encode differently (``1 == True``); each
        # entry holds its label so the id stays its own
        self.state_keys = [encode_canonical(state._vars, encoded)
                           for _, state in graph.states()]
        self.labels: Dict[int, Tuple[ActionLabel, bytes]] = {}
        for edge in graph.edges():
            label = edge.label
            if id(label) not in self.labels:
                self.labels[id(label)] = (
                    label, encode_canonical(label.params, encoded))
        state_keys, labels = self.state_keys, self.labels

        def edge_key(edge: Edge) -> Tuple[str, bytes, bytes]:
            return (edge.label.name, labels[id(edge.label)][1],
                    state_keys[edge.dst])

        queue: List[int] = []
        for old_id in sorted(graph.initial_ids, key=state_keys.__getitem__):
            if old_id not in self.assigned:
                self._visit(old_id)
                queue.append(old_id)
        adjacency = graph.adjacency()
        cursor = 0
        while cursor < len(queue):
            old_id = queue[cursor]
            cursor += 1
            for edge in sorted(adjacency[old_id], key=edge_key):
                if edge.dst not in self.assigned:
                    self._visit(edge.dst)
                    queue.append(edge.dst)
        # hand-built graphs may hold states unreachable from Init
        leftovers = [n for n, _ in graph.states() if n not in self.assigned]
        for old_id in sorted(leftovers, key=state_keys.__getitem__):
            self._visit(old_id)
        assigned = self.assigned
        # (src, action, params, dst, label) in canonical edge order; two
        # edges never tie on the first four, so labels are not compared
        self.edges = sorted(
            (assigned[e.src], e.label.name, labels[id(e.label)][1],
             assigned[e.dst], e.label) for e in graph.edges())

    def _visit(self, old_id: int) -> None:
        self.assigned[old_id] = len(self.order)
        self.order.append(old_id)


def canonicalize(graph: StateGraph) -> StateGraph:
    """Return a renumbered copy of ``graph`` independent of discovery order."""
    encoded: Memo = {}
    form = _Form(graph, encoded)
    rebuilt: Memo = {}  # shared by every state: equal sub-values stay shared
    canonical_labels = {
        key: ActionLabel(label.name,
                         dict(canonical_value(label.params, rebuilt, encoded)))
        for key, (label, _params) in form.labels.items()}
    canonical = StateGraph(graph.spec_name)
    initial = set(graph.initial_ids)
    for old_id in form.order:
        # rebuild values in canonical container order too: equal states
        # must also *render* identically (set/dict iteration order is
        # insertion-dependent and would leak into the DOT text)
        canonical.add_state(
            canonical_state(graph.state_of(old_id), rebuilt, encoded),
            initial=old_id in initial)
    for src, _name, _params, dst, label in form.edges:
        canonical.add_edge(src, dst, canonical_labels[id(label)])
    canonical.refused_ids = {form.assigned[n] for n in graph.refused_ids}
    return canonical


def canonical_signature(graph: StateGraph) -> str:
    """A content hash of the canonical form (hex digest)."""
    return sha256(to_dot(canonicalize(graph)).encode("utf-8")).hexdigest()


def graphs_equivalent(left: StateGraph, right: StateGraph) -> bool:
    """True iff both graphs hold the same states, edges and initial set.

    Exactly when ``to_dot(canonicalize(left)) == to_dot(canonicalize(right))``
    (the DOT header names an unnamed spec ``state_space``), without
    building either canonical graph or its text.
    """
    if ((left.spec_name or "state_space") != (right.spec_name or "state_space")
            or left.num_states != right.num_states
            or left.num_edges != right.num_edges):
        return False
    encoded: Memo = {}
    one, two = _Form(left, encoded), _Form(right, encoded)
    one_initial, two_initial = set(left.initial_ids), set(right.initial_ids)
    return (all(one.state_keys[a] == two.state_keys[b]
                and (a in one_initial) == (b in two_initial)
                for a, b in zip(one.order, two.order))
            and all(x[:4] == y[:4] for x, y in zip(one.edges, two.edges)))
