"""Edge-coverage-guided graph traversal (Algorithm 1 of the paper).

Depth-first traversal from each initial state.  Every edge is a global
coverage target visited at most once across the whole traversal; a path
ends when the current state is a developer-declared end state or when
every outgoing edge of the current state has already been visited.  The
resulting set of root-to-end paths covers every reachable coverage
target exactly once.

Partial order reduction plugs in by shrinking the coverage-target set
(excluded edges behave as if already visited, per Section 4.2.2: the
schedules that are not chosen "are not treated as our coverage target").
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Set

from ...obs import TRACER
from ...tlaplus.graph import Edge, StateGraph

__all__ = ["TraversalResult", "edge_coverage_paths"]


class TraversalResult:
    """Paths produced by the traversal plus coverage bookkeeping.

    ``targets`` and ``covered`` hold :attr:`Edge.index` values: the
    coverage targets (every edge POR did not exclude) and the targets
    some path walks (``graph.edges()[i]`` is the edge itself).
    :func:`node_coverage_paths` fills them with node ids instead.
    """

    def __init__(self, paths: List[List[Edge]], targets: Set[Any],
                 covered: Set[Any]):
        self.paths = paths
        self.targets = targets
        self.covered = covered

    @property
    def uncovered(self) -> Set[Any]:
        """Coverage targets no path visited (unreachable via target edges)."""
        return self.targets - self.covered

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __repr__(self) -> str:
        return (
            f"TraversalResult({len(self.paths)} paths, "
            f"{len(self.covered)}/{len(self.targets)} edges covered)"
        )


def edge_coverage_paths(
    graph: StateGraph,
    end_state_ids: Optional[Iterable[int]] = None,
    excluded_edges: Optional[Iterable[Edge]] = None,
    max_paths: Optional[int] = None,
) -> TraversalResult:
    """Run Algorithm 1 over ``graph``.

    ``end_state_ids`` — developer-declared end states (paths stop there).
    ``excluded_edges`` — edges removed from the coverage targets (POR).
    ``max_paths`` — optional cap for very large graphs (the paper bounds
    testing wall-clock instead; a cap keeps benches tractable).
    """
    with TRACER.span("testgen.traversal", spec=graph.spec_name) as walk_span:
        ends: Set[int] = set(end_state_ids or ())
        excluded: Set[int] = {edge.index for edge in (excluded_edges or ())}
        targets: Set[int] = set(range(graph.num_edges)) - excluded

        visited: Set[int] = set()
        paths: List[List[Edge]] = []

        for init_id in graph.initial_ids:
            if max_paths is not None and len(paths) >= max_paths:
                break
            _traverse_from(graph.adjacency(), init_id, ends, excluded,
                           visited, paths, max_paths)

        walk_span.add(paths=len(paths), targets=len(targets),
                      covered=len(visited))
        return TraversalResult(paths=paths, targets=targets, covered=visited)


class _Frame:
    """One simulated recursion frame of Algorithm 1's ``traverse``."""

    __slots__ = ("state_id", "path", "edge_iter", "entered")

    def __init__(self, state_id: int, path: List[Edge], edges: Sequence[Edge]):
        self.state_id = state_id
        self.path = path
        self.edge_iter = iter(edges)
        self.entered = False


def _traverse_from(
    adjacency: Mapping[int, Sequence[Edge]],
    init_id: int,
    ends: Set[int],
    excluded: Set[int],
    visited: Set[int],
    paths: List[List[Edge]],
    max_paths: Optional[int],
) -> None:
    """Iterative DFS that simulates Algorithm 1's recursion exactly.

    The add-path decision happens at frame *entry* (Algorithm 1 line 5):
    a path is emitted when the current state is an end state or has no
    unvisited outgoing coverage target.  Edges are claimed lazily, one at
    a time, so an edge covered deep inside a sibling subtree is skipped
    when the loop returns to it — exactly as in the recursive original.
    """
    stack: List[_Frame] = [_Frame(init_id, [], adjacency[init_id])]
    while stack:
        if max_paths is not None and len(paths) >= max_paths:
            return
        frame = stack[-1]

        if not frame.entered:
            frame.entered = True
            has_candidate = any(
                edge.index not in visited and edge.index not in excluded
                for edge in adjacency[frame.state_id]
            )
            # Line 5: end state, or every outgoing edge already visited.
            # (An initial state that is itself an end state would yield an
            # empty path, which is not a test case, so require progress.)
            if (frame.state_id in ends and frame.path) or not has_candidate:
                if frame.path:
                    paths.append(frame.path)
                stack.pop()
                continue

        # Lines 8-15: pick the next still-unvisited edge, claim it, recurse.
        next_edge = None
        for edge in frame.edge_iter:
            if edge.index in visited or edge.index in excluded:
                continue
            next_edge = edge
            break
        if next_edge is None:
            stack.pop()
            continue
        visited.add(next_edge.index)
        stack.append(
            _Frame(next_edge.dst, frame.path + [next_edge],
                   adjacency[next_edge.dst])
        )


def paths_to_lengths(paths: Sequence[List[Edge]]) -> List[int]:
    """Convenience for stats/benches: path lengths in traversal order."""
    return [len(path) for path in paths]


def node_coverage_paths(
    graph: StateGraph,
    end_state_ids: Optional[Iterable[int]] = None,
    max_paths: Optional[int] = None,
) -> TraversalResult:
    """The alternative strategy of Section 4.2.1: cover *states*.

    Same DFS skeleton, but the coverage targets are nodes: an edge is
    only worth traversing if it leads to a not-yet-visited state (or if
    the current state still has unvisited reachable successors).  This
    produces far fewer paths than edge coverage — and correspondingly
    misses every behaviour that only differs in *which action* connects
    two states, which is why Mocket chooses edge coverage.

    ``TraversalResult.targets``/``covered`` hold node ids wrapped as
    1-tuples, so they never pass for the edge variant's edge indices.
    """
    ends: Set[int] = set(end_state_ids or ())
    visited_nodes: Set[int] = set()
    paths: List[List[Edge]] = []

    for init_id in graph.initial_ids:
        if max_paths is not None and len(paths) >= max_paths:
            break
        visited_nodes.add(init_id)
        stack: List[_Frame] = [_Frame(init_id, [], graph.out_edges(init_id))]
        while stack:
            if max_paths is not None and len(paths) >= max_paths:
                break
            frame = stack[-1]
            if not frame.entered:
                frame.entered = True
                has_candidate = any(
                    edge.dst not in visited_nodes
                    for edge in graph.out_edges(frame.state_id)
                )
                if (frame.state_id in ends and frame.path) or not has_candidate:
                    if frame.path:
                        paths.append(frame.path)
                    stack.pop()
                    continue
            next_edge = None
            for edge in frame.edge_iter:
                if edge.dst in visited_nodes:
                    continue
                next_edge = edge
                break
            if next_edge is None:
                stack.pop()
                continue
            visited_nodes.add(next_edge.dst)
            stack.append(_Frame(next_edge.dst, frame.path + [next_edge],
                                graph.out_edges(next_edge.dst)))

    targets = {(node_id,) for node_id in range(graph.num_states)}
    covered = {(node_id,) for node_id in visited_nodes}
    return TraversalResult(paths=paths, targets=targets, covered=covered)
