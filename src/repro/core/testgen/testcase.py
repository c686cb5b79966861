"""Test cases generated from the state-space graph.

A test case is a path through the verified state space starting at an
initial state (Section 4.2): a sequence of actions to schedule, plus the
verified state expected after each action.  During controlled testing
the scheduler forces the implementation through the action sequence and
the state checker compares runtime state with each expected state.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ...tlaplus.dot import decode_value, encode_value
from ...tlaplus.graph import Edge, StateGraph
from ...tlaplus.state import ActionLabel, State

__all__ = ["TestStep", "PathSteps", "TestCase", "TestSuite"]


class TestStep:
    """One scheduled action and the verified state expected after it."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ("label", "expected_state", "src_id", "dst_id")

    def __init__(self, label: ActionLabel, expected_state: State,
                 src_id: int = -1, dst_id: int = -1):
        self.label = label
        self.expected_state = expected_state
        self.src_id = src_id
        self.dst_id = dst_id

    def __repr__(self) -> str:
        return f"TestStep({self.label!r} -> state {self.dst_id})"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TestStep):
            return NotImplemented
        return (self.label, self.expected_state) == (other.label, other.expected_state)


class PathSteps(Sequence):
    """A path-backed case's steps: a read-only view over its edge path.

    ``len`` is O(1); indexing, slicing and iteration build each
    :class:`TestStep` from the shared graph on demand and never keep
    it, so a suite holds its edge paths and nothing more.  A slice is a
    view too.
    """

    __slots__ = ("graph", "path")

    def __init__(self, graph: StateGraph, path: Tuple[Edge, ...]):
        self.graph = graph
        self.path = path

    def _step(self, edge: Edge) -> TestStep:
        return TestStep(edge.label, self.graph.state_of(edge.dst),
                        src_id=edge.src, dst_id=edge.dst)

    def __len__(self) -> int:
        return len(self.path)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PathSteps(self.graph, self.path[index])
        return self._step(self.path[index])

    def __iter__(self) -> Iterator[TestStep]:
        return map(self._step, self.path)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, (list, tuple, PathSteps)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]


class TestCase:
    """An executable test case: initial state + action/state sequence.

    A case generated from the verified graph (:meth:`from_edges`) is
    just its edge path over the shared :class:`StateGraph`: its
    ``steps`` are a :class:`PathSteps` view, built on access and never
    cached.  A case crosses a process boundary (pickling) as its steps,
    never with the graph.
    """

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ("case_id", "initial_state", "initial_id", "steps")

    def __init__(self, case_id: int, initial_state: State, steps: Sequence[TestStep],
                 initial_id: int = 0):
        self.case_id = case_id
        self.initial_state = initial_state
        self.initial_id = initial_id
        # the scheduled actions with their expected states: a view is
        # immutable and kept, any other sequence is copied
        self.steps: Sequence[TestStep] = (
            steps if type(steps) is PathSteps else list(steps))

    @classmethod
    def from_edges(cls, case_id: int, graph: StateGraph, edges: Sequence[Edge]) -> "TestCase":
        """Build a test case from a root-to-end edge path in ``graph``."""
        if not edges:
            raise ValueError("a test case needs at least one action")
        initial_id = edges[0].src
        if initial_id not in graph.initial_ids:
            raise ValueError(
                f"test case must start from an initial state, got node {initial_id}"
            )
        previous = initial_id
        for edge in edges:
            if edge.src != previous:
                raise ValueError(f"edge path is not contiguous at {edge!r}")
            previous = edge.dst
        return cls(case_id, graph.state_of(initial_id),
                   PathSteps(graph, tuple(edges)), initial_id=initial_id)

    def __reduce__(self):
        # ship the steps, never the graph a view reads them from
        return (TestCase, (self.case_id, self.initial_state,
                           list(self.steps), self.initial_id))

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TestStep]:
        return iter(self.steps)

    def labels(self) -> List[ActionLabel]:
        return [step.label for step in self.steps]

    def action_names(self) -> List[str]:
        return [step.label.name for step in self.steps]

    def node_ids(self) -> List[int]:
        """The node each step leaves, then the node the case ends in;
        ``-1`` marks a hand-built step without graph provenance."""
        steps = self.steps
        if type(steps) is PathSteps:
            return [edge.src for edge in steps.path] + [steps.path[-1].dst]
        return [step.src_id for step in steps] + [self.final_id]

    @property
    def final_state(self) -> State:
        steps = self.steps
        return steps[-1].expected_state if steps else self.initial_state

    @property
    def final_id(self) -> int:
        steps = self.steps
        if type(steps) is PathSteps:
            return steps.path[-1].dst
        return steps[-1].dst_id if steps else self.initial_id

    def describe(self) -> str:
        """A one-line schedule summary: ``s0 -> A -> s1 -> B -> s2``."""
        parts = [f"s{self.initial_id}"]
        for step in self.steps:
            parts.append(repr(step.label))
            parts.append(f"s{step.dst_id}")
        return " -> ".join(parts)

    def __repr__(self) -> str:
        return f"TestCase(#{self.case_id}, {len(self.steps)} actions)"

    # -- serialization --------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """A JSON-serializable dump (values encoded as tagged literals)."""
        return {
            "case_id": self.case_id,
            "initial_id": self.initial_id,
            "initial_state": encode_value(self.initial_state._vars),
            "steps": [
                {
                    "action": step.label.name,
                    "params": encode_value(step.label.params),
                    "expected_state": encode_value(step.expected_state._vars),
                    "src_id": step.src_id,
                    "dst_id": step.dst_id,
                }
                for step in self.steps
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "TestCase":
        initial_state = State(dict(decode_value(payload["initial_state"])))
        steps = [
            TestStep(
                ActionLabel(raw["action"], dict(decode_value(raw["params"]))),
                State(dict(decode_value(raw["expected_state"]))),
                src_id=raw["src_id"],
                dst_id=raw["dst_id"],
            )
            for raw in payload["steps"]
        ]
        return cls(payload["case_id"], initial_state, steps,
                   initial_id=payload["initial_id"])


class TestSuite:
    """A group of test cases plus generation statistics."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, cases: Sequence[TestCase], graph: Optional[StateGraph] = None,
                 excluded_edges: int = 0, uncovered_edges: int = 0):
        self.cases: List[TestCase] = list(cases)
        self.graph = graph
        self.excluded_edges = excluded_edges      # edges removed by POR
        self.uncovered_edges = uncovered_edges    # coverage targets no path hit

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[TestCase]:
        return iter(self.cases)

    def __getitem__(self, index: int) -> TestCase:
        return self.cases[index]

    def total_actions(self) -> int:
        return sum(len(case) for case in self.cases)

    def covered_action_names(self) -> set:
        names = set()
        for case in self.cases:
            names.update(case.action_names())
        return names

    def stats(self) -> Dict[str, int]:
        return {
            "cases": len(self.cases),
            "total_actions": self.total_actions(),
            "excluded_edges": self.excluded_edges,
            "uncovered_edges": self.uncovered_edges,
        }

    def truncated(self, max_cases: Optional[int]) -> "TestSuite":
        """The first ``max_cases`` cases as a suite (self when no cap).

        Fault planning composes with ``--cases`` through this: the base
        suite is capped *before* the planner runs, so derived fault
        cases — appended after the base cases — still execute.
        """
        if max_cases is None or max_cases >= len(self.cases):
            return self
        return TestSuite(self.cases[:max_cases], graph=self.graph,
                         excluded_edges=self.excluded_edges,
                         uncovered_edges=self.uncovered_edges)

    # -- persistence ----------------------------------------------------------
    def save(self, path_or_file) -> None:
        """Write the suite (and generation stats) to a JSON file.

        Generated suites can be expensive to rebuild for large graphs;
        saved suites replay bit-identically (`mocket testgen --out` /
        `mocket test --suite`).
        """
        import json

        payload = {
            "format": "mocket-test-suite/1",
            "excluded_edges": self.excluded_edges,
            "uncovered_edges": self.uncovered_edges,
            "cases": [case.to_jsonable() for case in self.cases],
        }
        if hasattr(path_or_file, "write"):
            json.dump(payload, path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)

    @classmethod
    def load(cls, path_or_file) -> "TestSuite":
        """Read a suite previously written by :meth:`save`."""
        import json

        if hasattr(path_or_file, "read"):
            payload = json.load(path_or_file)
        else:
            with open(path_or_file, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        if payload.get("format") != "mocket-test-suite/1":
            raise ValueError(f"not a mocket test suite: {path_or_file!r}")
        cases = [TestCase.from_jsonable(raw) for raw in payload["cases"]]
        return cls(cases, excluded_edges=payload["excluded_edges"],
                   uncovered_edges=payload["uncovered_edges"])

    def __repr__(self) -> str:
        return f"TestSuite({len(self.cases)} cases, {self.total_actions()} actions)"
