"""Scenario test cases: a verified path built directly from the spec.

The graph traversal enumerates test cases breadth-first; the paper's
deep bugs (Xraft bug #3 took 39 minutes and a 19-action case) surface
only after running many cases.  A *scenario* takes the complementary
route: the investigator writes down an action schedule, and this module
**verifies it against the specification** — every action must be an
enabled transition, states are computed by the spec itself — producing
the same artifact a graph path would (a :class:`TestCase` plus a graph
fragment carrying the final state's enabled transitions for the
unexpected-action check).

A scenario is therefore never "hand-written expected states": if the
schedule is not a behaviour of the verified state space, building it
fails.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from ...tlaplus.graph import StateGraph
from ...tlaplus.spec import Specification
from ...tlaplus.state import ActionLabel
from .testcase import TestCase

__all__ = ["Scenario", "ScenarioError", "label", "scenario_case"]


class ScenarioError(Exception):
    """The scenario schedule is not a behaviour of the specification."""


class Scenario:
    """A named bug-revealing schedule (one Table 2 row) for a system."""

    def __init__(self, name, spec, graph, case, buggy_config, expected_kind,
                 expected_subject, servers, correct_config=None,
                 is_spec_bug=False):
        self.name = name
        self.spec = spec
        self.graph = graph
        self.case = case
        self.buggy_config = buggy_config      # config expected to diverge
        self.correct_config = correct_config  # config expected to pass (None: the default)
        self.expected_kind = expected_kind        # DivergenceKind value
        self.expected_subject = expected_subject  # variable or action name
        self.servers = servers
        self.is_spec_bug = is_spec_bug  # the divergence is the spec's: no fixed build


def label(name: str, **params) -> ActionLabel:
    """Shorthand for building scenario steps: ``label("Timeout", i="n1")``."""
    return ActionLabel(name, params)


def scenario_case(
    spec: Specification,
    schedule: Sequence[Union[ActionLabel, Tuple[str, dict]]],
) -> Tuple[StateGraph, TestCase]:
    """Verify ``schedule`` against ``spec`` and build its test case.

    Returns ``(graph, case)`` where ``graph`` contains the path's states
    plus every transition enabled in the final state (so the controlled
    tester's end-of-case unexpected-action check works exactly as with a
    full state-space graph).

    Raises :class:`ScenarioError` if any step is not enabled, with the
    enabled alternatives in the message — this is how scenario authoring
    mistakes surface.
    """
    labels = [
        step if isinstance(step, ActionLabel) else ActionLabel(step[0], step[1])
        for step in schedule
    ]
    if not labels:
        raise ScenarioError("a scenario needs at least one action")

    current = spec.initial_states()[0]

    graph = StateGraph(f"{spec.name}-scenario")
    current_id = graph.add_state(current, initial=True)
    edges = []
    for position, step in enumerate(labels):
        decl = spec.actions.get(step.name)
        if decl is None:
            raise ScenarioError(f"step {position}: unknown action {step.name!r}")
        successor = spec.apply(decl, current, dict(step.params))
        if successor is None:
            enabled = sorted(repr(lbl) for lbl, _ in spec.enabled(current))
            raise ScenarioError(
                f"step {position}: {step!r} is not enabled; enabled here: "
                f"{enabled}"
            )
        succ_id = graph.add_state(successor)
        edge = graph.add_edge(current_id, succ_id, step)
        if edge is None:  # revisiting a transition (cycle): reuse it
            edge = graph.edge_between(current_id, succ_id, step)
        edges.append(edge)
        current, current_id = successor, succ_id

    # Materialize the final state's enabled transitions for the
    # end-of-case unexpected-action check.
    for enabled_label, successor in spec.enabled(current):
        succ_id = graph.add_state(successor)
        graph.add_edge(current_id, succ_id, enabled_label)

    case = TestCase.from_edges(0, graph, edges)
    return graph, case
