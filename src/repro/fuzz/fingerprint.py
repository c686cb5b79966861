"""Coverage fingerprinting: which verified states/edges did a run visit?

The fuzzer's feedback signal is *graph coverage*: every executed test
step confirms the implementation reached one verified state of the
canonical graph via one verified edge.  Both are identified by the
engine's stable blake2b FP64 fingerprints
(:mod:`repro.engine.fingerprint`), so coverage sets are content-anchored
— independent of node numbering, exploration order, worker count and
``PYTHONHASHSEED`` — and comparable across runs, corpora and even
re-explored graphs.

* a **state fingerprint** is ``fingerprint_state(state)``,
* an **edge fingerprint** is
  :func:`~repro.engine.fingerprint.edge_fingerprint` — injective over
  (endpoint contents, label), and the same value a traced
  ``runner.step`` records as ``edge_fp``.

:func:`case_coverage` reads coverage straight off a
:class:`~repro.core.testgen.testcase.TestCase` and the number of steps
that actually executed, so it needs no graph access and works for
derived (fault-spliced) cases too.  :class:`GraphIndex` precomputes the
canonical graph's full fingerprint population for denominators and for
the mutators' "which edges are still uncovered" queries.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..core.testbed.report import SuiteResult
from ..core.testgen.testcase import TestCase
from ..engine.fingerprint import edge_fingerprint, fingerprint_state
from ..tlaplus.graph import Edge, StateGraph
from ..tlaplus.state import State

__all__ = ["GraphIndex", "Coverage", "case_coverage", "run_coverage",
           "edge_fingerprint", "format_fp"]


def format_fp(fp: int) -> str:
    """Fixed-width lowercase hex — the serialized fingerprint form."""
    return f"{fp:016x}"


class Coverage:
    """A set of visited state and edge fingerprints."""

    __slots__ = ("states", "edges")

    def __init__(self, states: Optional[Iterable[int]] = None,
                 edges: Optional[Iterable[int]] = None):
        self.states: Set[int] = set(states or ())
        self.edges: Set[int] = set(edges or ())

    def update(self, other: "Coverage") -> None:
        self.states |= other.states
        self.edges |= other.edges

    def __len__(self) -> int:
        return len(self.states) + len(self.edges)

    def new_against(self, seen_states: Iterable[int],
                    seen_edges: Iterable[int]) -> Tuple[Set[int], Set[int]]:
        """Fingerprints in this coverage but not in the seen sets."""
        return (self.states - set(seen_states),
                self.edges - set(seen_edges))

    def to_jsonable(self) -> Dict[str, list]:
        return {"states": sorted(format_fp(fp) for fp in self.states),
                "edges": sorted(format_fp(fp) for fp in self.edges)}

    @classmethod
    def from_jsonable(cls, payload: Dict[str, list]) -> "Coverage":
        return cls(states=(int(fp, 16) for fp in payload["states"]),
                   edges=(int(fp, 16) for fp in payload["edges"]))

    def __repr__(self) -> str:
        return f"Coverage({len(self.states)} states, {len(self.edges)} edges)"


class GraphIndex:
    """Fingerprint view of a canonical state graph.

    Precomputes every state and edge fingerprint once; mutators query
    it for uncovered regions, reports for denominators.  State
    fingerprints are cached by the (interned) ``State`` objects the
    graph holds, so fingerprinting a suite over the same graph is
    amortized O(1) per step.
    """

    def __init__(self, graph: StateGraph):
        self.graph = graph
        self._state_fp_cache: Dict[State, int] = {}
        self.state_fps = [self.state_fp(state)
                          for _, state in graph.states()]
        self.edge_fp_by_index: Dict[int, int] = {}
        for edge in graph.edges():
            self.edge_fp_by_index[edge.index] = self.edge_fp(edge)
        self.all_states: Set[int] = set(self.state_fps)
        self.all_edges: Set[int] = set(self.edge_fp_by_index.values())

    @property
    def num_states(self) -> int:
        return self.graph.num_states

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def state_fp(self, state: State) -> int:
        fp = self._state_fp_cache.get(state)
        if fp is None:
            fp = self._state_fp_cache[state] = fingerprint_state(state)
        return fp

    def state_fp_of(self, node_id: int) -> int:
        return self.state_fps[node_id]

    def edge_fp(self, edge: Edge) -> int:
        cached = self.edge_fp_by_index.get(edge.index)
        if cached is not None:
            return cached
        return edge_fingerprint(self.state_fp(self.graph.state_of(edge.src)),
                                edge.label,
                                self.state_fp(self.graph.state_of(edge.dst)))

    def uncovered_out_edges(self, node_id: int,
                            covered_edges: Set[int]) -> list:
        """Outgoing edges of ``node_id`` whose fingerprint is uncovered."""
        return [edge for edge in self.graph.out_edges(node_id)
                if self.edge_fp(edge) not in covered_edges]


def case_coverage(case: TestCase, executed: Optional[int] = None,
                  index: Optional[GraphIndex] = None) -> Coverage:
    """Coverage of one case: the initial state plus the first
    ``executed`` confirmed steps (default: all of them).

    Content-anchored: works for hand-built cases without graph
    provenance, and for derived fault-splice cases alike.  Pass a
    :class:`GraphIndex` to share its state-fingerprint cache.
    """
    fp_of = index.state_fp if index is not None else fingerprint_state
    previous = fp_of(case.initial_state)
    coverage = Coverage(states=(previous,))
    steps = case.steps if executed is None else case.steps[:executed]
    for step in steps:
        dst = fp_of(step.expected_state)
        coverage.edges.add(edge_fingerprint(previous, step.label, dst))
        coverage.states.add(dst)
        previous = dst
    return coverage


def run_coverage(outcome: SuiteResult,
                 index: Optional[GraphIndex] = None) -> Coverage:
    """Union coverage of a suite run, honouring how far each case got.

    A divergent case contributes only its confirmed prefix (the
    divergent step's destination state was never verified to hold).
    """
    total = Coverage()
    for result in outcome.results:
        total.update(case_coverage(result.case, result.executed_actions,
                                   index))
    return total
