"""The state-space graph produced by model checking.

This is the artifact Mocket consumes: a directed multigraph whose nodes
are verified states (numbered in discovery order, 0 = an initial state,
exactly like TLC's dump) and whose edges are labelled with the action
binding that produced the transition.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .state import ActionLabel, State
from .values import ValueTable

__all__ = ["Edge", "StateGraph"]


class Edge:
    """One labelled transition ``src --label--> dst``."""

    __slots__ = ("src", "dst", "label", "index")

    def __init__(self, src: int, dst: int, label: ActionLabel, index: int):
        self.src = src
        self.dst = dst
        self.label = label
        self.index = index  # unique, stable edge id in insertion order

    def key(self) -> Tuple[int, int, ActionLabel]:
        return (self.src, self.dst, self.label)

    def __repr__(self) -> str:
        return f"Edge({self.src} --{self.label!r}--> {self.dst})"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class StateGraph:
    """Directed multigraph of verified states.

    Nodes are dense integer ids; ``state_of`` maps back to the
    :class:`State`.  Parallel edges with distinct labels are kept (two
    different actions may connect the same pair of states), but the pair
    ``(src, dst, label)`` is unique.

    A new state's values are hash-consed into the graph's own
    :class:`ValueTable`, so every alike value the graph holds is one
    object; the stored state may therefore be an equal copy of the one
    passed to :meth:`add_state`.
    """

    def __init__(self, spec_name: str = ""):
        self.spec_name = spec_name
        self._states: List[State] = []
        self._ids: Dict[State, int] = {}
        self._values = ValueTable()
        self._out: Dict[int, List[Edge]] = {}
        self._edges: List[Edge] = []
        self.initial_ids: List[int] = []
        # states the checker could not fully expand under its
        # ``max_states`` budget: their enabled set here is incomplete
        self.refused_ids: Set[int] = set()

    # -- construction -----------------------------------------------------------
    def add_state(self, state: State, initial: bool = False) -> int:
        """Intern ``state``; returns its (possibly pre-existing) id."""
        node_id = self._ids.get(state)
        if node_id is None:
            node_id = len(self._states)
            state = state._interned(self._values)
            self._states.append(state)
            self._ids[state] = node_id
            self._out[node_id] = []
        if initial and node_id not in self.initial_ids:
            self.initial_ids.append(node_id)
        return node_id

    def add_edge(self, src: int, dst: int, label: ActionLabel) -> Optional[Edge]:
        """Add ``src --label--> dst``; duplicate (src, dst, label) is a no-op.

        The duplicate check scans ``src``'s own out-edges: out-degrees
        are small, and a graph-wide key set would cost more than the
        edges themselves."""
        if self.edge_between(src, dst, label) is not None:
            return None
        edge = Edge(src, dst, label, index=len(self._edges))
        self._edges.append(edge)
        self._out[src].append(edge)
        return edge

    # -- queries ------------------------------------------------------------------
    @property
    def values(self) -> ValueTable:
        """The table this graph's state values are hash-consed in."""
        return self._values

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def state_of(self, node_id: int) -> State:
        return self._states[node_id]

    def id_of(self, state: State) -> Optional[int]:
        return self._ids.get(state)

    def states(self) -> Iterator[Tuple[int, State]]:
        return enumerate(self._states)

    def edges(self) -> List[Edge]:
        return list(self._edges)

    def out_edges(self, node_id: int) -> List[Edge]:
        return list(self._out[node_id])

    def adjacency(self) -> Mapping[int, Sequence[Edge]]:
        """Every node's out-edges in insertion order, *not* copied: for
        passes that read the whole graph without changing it."""
        return self._out

    def successors(self, node_id: int) -> List[int]:
        return [edge.dst for edge in self._out[node_id]]

    def edge_between(self, src: int, dst: int, label: ActionLabel) -> Optional[Edge]:
        for edge in self._out[src]:
            if edge.dst == dst and edge.label == label:
                return edge
        return None

    def enabled_labels(self, node_id: int) -> List[ActionLabel]:
        """Labels of every outgoing edge — the actions enabled in this state."""
        return [edge.label for edge in self._out[node_id]]

    def action_names(self) -> Set[str]:
        """Distinct action names appearing on edges."""
        return {edge.label.name for edge in self._edges}

    def terminal_ids(self) -> List[int]:
        """States with no outgoing edge (deadlocks / completed behaviours)."""
        return [node_id for node_id in range(self.num_states) if not self._out[node_id]]

    def stats(self) -> Dict[str, int]:
        return {
            "states": self.num_states,
            "edges": self.num_edges,
            "initial": len(self.initial_ids),
            "terminal": len(self.terminal_ids()),
            "actions": len(self.action_names()),
        }

    def __repr__(self) -> str:
        return (
            f"StateGraph({self.spec_name!r}, {self.num_states} states, "
            f"{self.num_edges} edges)"
        )
