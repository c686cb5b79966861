"""Partial order reduction over the state-space graph (Section 4.2.2).

Two actions ``a1`` and ``a2`` enabled in the same state ``s0`` are
*commutative* when both interleavings reach the same state::

    s0 --a1--> s1 --a2--> s3
    s0 --a2--> s2 --a1--> s3

For every such diamond we keep one interleaving and drop the other from
the traversal's coverage targets; the dropped edge is the *second* hop
of the non-chosen interleaving (``s2 --a1--> s3``), so that ``s2`` and
its remaining outgoing edges stay reachable.

The paper notes this is a heuristic: commutativity in the graph does not
always imply commutativity in the implementation, so reduction trades
coverage for tractability.  The choice of which interleaving survives
is deterministic given ``seed``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from ...obs import METRICS, TRACER
from ...tlaplus.graph import Edge, StateGraph
from ...tlaplus.state import ActionLabel

__all__ = ["Diamond", "find_diamonds", "por_excluded_edges"]


class Diamond:
    """One commutative diamond found in the graph."""

    __slots__ = ("origin", "first_a", "first_b", "second_a", "second_b", "join")

    def __init__(self, origin: int, first_a: Edge, second_a: Edge,
                 first_b: Edge, second_b: Edge):
        self.origin = origin
        self.first_a = first_a      # s0 --a1--> s1
        self.second_a = second_a    # s1 --a2--> s3
        self.first_b = first_b      # s0 --a2--> s2
        self.second_b = second_b    # s2 --a1--> s3
        self.join = second_a.dst

    def __repr__(self) -> str:
        return (
            f"Diamond(s{self.origin}: {self.first_a.label!r}/{self.first_b.label!r}"
            f" join s{self.join})"
        )


def find_diamonds(graph: StateGraph, independence=None) -> List[Diamond]:
    """Enumerate commutative diamonds.

    For each state, each unordered pair of outgoing edges with distinct
    labels is checked for the matching pair of second hops that join in
    a single state.  Each diamond is reported once (labels ordered by
    repr, so ``first_a.label < first_b.label``).  Both second hops must
    exist: a truncated graph (depth bound) can cut one interleaving
    short, and those half-diamonds are skipped.

    ``independence`` is accepted and ignored: every diamond's join is
    verified on the graph, so static certificates
    (:meth:`repro.analysis.effects.SpecEffects.independence`) could only
    admit a pair whose interleavings do not join.  The keyword stays
    because the frozen benchmark rounds still pass it.

    Labels are compared as small ints, one per equality class of the
    graph's labels, ranked by the ``repr`` of each class's first label
    in edge order; the second hop with a label is the first out-edge
    carrying it.
    """
    adjacency = graph.adjacency()
    classes: Dict[ActionLabel, int] = {}
    label_class = [classes.setdefault(edge.label, len(classes))
                   for edge in graph.edges()]    # by edge index
    texts = [repr(label) for label in classes]   # by class
    dense = {text: rank for rank, text in enumerate(sorted(set(texts)))}
    rank = [dense[text] for text in texts]       # by class
    first_edge: List[Dict[int, Edge]] = []       # by node: class -> out-edge
    for node_id in range(graph.num_states):
        index: Dict[int, Edge] = {}
        for edge in adjacency[node_id]:
            index.setdefault(label_class[edge.index], edge)
        first_edge.append(index)

    diamonds: List[Diamond] = []
    for node_id in range(graph.num_states):
        out = adjacency[node_id]
        for i, edge_a in enumerate(out):
            class_a = label_class[edge_a.index]
            for j in range(i + 1, len(out)):
                edge_b = out[j]
                class_b = label_class[edge_b.index]
                if class_a == class_b or edge_a.dst == edge_b.dst:
                    continue
                # order the pair so each diamond is found exactly once
                first_a, first_b = edge_a, edge_b
                label_a, label_b = class_a, class_b
                if rank[class_b] < rank[class_a]:
                    first_a, first_b = edge_b, edge_a
                    label_a, label_b = class_b, class_a
                second_a = first_edge[first_a.dst].get(label_b)
                second_b = first_edge[first_b.dst].get(label_a)
                if (second_a is None or second_b is None
                        or second_a.dst != second_b.dst):
                    continue
                diamonds.append(Diamond(node_id, first_a, second_a, first_b, second_b))
    return diamonds


def por_excluded_edges(graph: StateGraph, seed: int = 0) -> Set[Edge]:
    """Pick the coverage targets to drop: one interleaving per diamond.

    Returns the set of *second-hop* edges of the non-chosen
    interleavings.  An edge kept by one diamond is never excluded by a
    later one (kept edges are pinned).  A diamond skipped because one
    of its second hops is already excluded pins nothing, though, so a
    later diamond may exclude the other one too: on the raftkv model
    363 of 1,160 diamonds lose both interleavings.  Pinning it changes
    every bundled suite, so it waits for a benchmark re-pin (ROADMAP).
    """
    rng = random.Random(seed)
    with TRACER.span("por.reduce", spec=graph.spec_name, seed=seed) as por_span:
        excluded: Set[int] = set()   # edge indices
        kept: Set[int] = set()
        result: Set[Edge] = set()
        diamonds = find_diamonds(graph)
        for diamond in diamonds:
            option_a = diamond.second_a  # drop candidate if order B is kept
            option_b = diamond.second_b
            a_key, b_key = option_a.index, option_b.index
            if a_key in excluded or b_key in excluded:
                continue  # one order already dropped; the other stays
            if a_key in kept and b_key in kept:
                continue  # both orders pinned by earlier diamonds; drop neither
            if a_key in kept:
                drop = option_b
            elif b_key in kept:
                drop = option_a
            else:
                drop = option_a if rng.random() < 0.5 else option_b
            excluded.add(drop.index)
            result.add(drop)
            keep = option_b if drop is option_a else option_a
            kept.add(keep.index)
            if TRACER.enabled:
                TRACER.emit("por.pruned", origin=diamond.origin,
                            src=drop.src, dst=drop.dst,
                            label=repr(drop.label),
                            kept=repr(keep.label))
        if TRACER.enabled:
            METRICS.counter("por.pruned_edges").inc(len(result))
            METRICS.set_gauge("por.diamonds", len(diamonds))
            por_span.add(diamonds=len(diamonds), pruned=len(result))
        return result


def diamond_stats(graph: StateGraph) -> Dict[str, int]:
    """Summary numbers for benches: diamonds found and edges dropped."""
    diamonds = find_diamonds(graph)
    dropped = por_excluded_edges(graph)
    return {"diamonds": len(diamonds), "excluded_edges": len(dropped)}
