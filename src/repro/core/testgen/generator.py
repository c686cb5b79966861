"""Test-suite generation front-end (Section 4.2).

Combines the pieces: model-checked state graph → (optional POR) →
edge-coverage-guided traversal → executable :class:`TestCase` objects.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...obs import METRICS, TRACER
from ...tlaplus.graph import StateGraph
from .endstates import EndStates
from .por import por_excluded_edges
from .testcase import TestCase, TestSuite
from .traversal import edge_coverage_paths

__all__ = ["generate_test_cases"]


def generate_test_cases(
    graph: StateGraph,
    end_states: Optional[EndStates] = None,
    por: bool = True,
    seed: int = 0,
    max_cases: Optional[int] = None,
    independence=None,
) -> TestSuite:
    """Generate a test suite from a verified state-space graph.

    ``end_states`` — optional end-state specification (see
    :mod:`repro.core.testgen.endstates`); paths stop there.
    ``por`` — apply partial order reduction before traversal.
    ``seed`` — determinizes POR's interleaving choices.
    ``max_cases`` — optional cap on the number of generated cases.
    ``independence`` — accepted and ignored, as by
    :func:`~repro.core.testgen.por.find_diamonds`: POR verifies every
    diamond's join on the graph.  The frozen benchmark rounds pass it.
    """
    with TRACER.span("testgen.generate", spec=graph.spec_name, por=por,
                     seed=seed) as gen_span:
        end_ids: Iterable[int] = end_states(graph) if end_states is not None else ()
        excluded = por_excluded_edges(graph, seed=seed) if por else set()
        traversal = edge_coverage_paths(
            graph,
            end_state_ids=end_ids,
            excluded_edges=excluded,
            max_paths=max_cases,
        )
        cases = []
        for case_id, path in enumerate(traversal.paths):
            case = TestCase.from_edges(case_id, graph, path)
            cases.append(case)
            if TRACER.enabled:
                TRACER.emit("testgen.case_emitted", case=case_id,
                            actions=len(case), initial=case.initial_id,
                            final=case.final_id)
        if TRACER.enabled:
            coverage_pct = (100.0 * len(traversal.covered) / len(traversal.targets)
                            if traversal.targets else 100.0)
            METRICS.set_gauge("testgen.cases", len(cases))
            METRICS.set_gauge("testgen.actions",
                              sum(len(case) for case in cases))
            METRICS.set_gauge("testgen.edge_coverage_pct", coverage_pct)
            gen_span.add(cases=len(cases), excluded_edges=len(excluded),
                         edge_coverage_pct=coverage_pct)
        return TestSuite(
            cases,
            graph=graph,
            excluded_edges=len(excluded),
            uncovered_edges=len(traversal.uncovered),
        )
