"""Suite-based discovery of the official-spec bugs (the paper's mode).

Instead of replaying investigator-written schedules, generate the
EC+POR suite from the *official* (``spec_bugs=True``) Raft model and run
it against the fixed raftkv until cases diverge — both specification
bugs surface on their own, as they did for the paper's authors.
"""

import pytest

from repro.core import (
    ControlledTester,
    DivergenceKind,
    generate_test_cases,
)
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.raftkv import (
    RaftKvConfig,
    build_raftkv_mapping,
    make_raftkv_cluster,
)
from repro.tlaplus import check


@pytest.fixture(scope="module")
def official_model():
    spec = build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1",), spec_bugs=True, name="raft-official",
    ))
    return spec, check(spec, max_states=60000).graph


def _tester(spec, graph, config):
    return ControlledTester(
        build_raftkv_mapping(spec, config), graph,
        lambda: make_raftkv_cluster(("n1", "n2", "n3"), config),
    )


class TestOfficialSpecSuiteDiscovery:
    def test_divergences_surface_from_plain_suite_runs(self, official_model):
        """Running generated cases against the fixed implementation
        reports inconsistencies — all of them traced to the two spec
        bugs, never to the implementation."""
        spec, graph = official_model
        suite = generate_test_cases(graph, por=True)
        tester = _tester(spec, graph, RaftKvConfig())
        outcome = tester.run_suite(suite, max_cases=40)
        kinds = {d.divergence.kind for d in outcome.failures}
        subjects = set()
        for failing in outcome.failures:
            divergence = failing.divergence
            if divergence.kind is DivergenceKind.MISSING_ACTION:
                subjects.add(divergence.action)
            else:
                subjects.update(divergence.variable_names)
        assert outcome.failures, "the spec bugs must surface"
        # the missing-UpdateTerm signature appears (Figure 10)
        assert "UpdateTerm" in subjects

    def test_snippet_mapping_cannot_absorb_figure10(self, official_model):
        """Even mapping UpdateTerm to the handlers' term-update snippet
        cannot make the official spec testable: the implementation
        evaluates the term condition at message arrival, the spec at
        schedule time, so suites still diverge (missing handlers whose
        thread is parked at an unscheduled UpdateTerm, stale UpdateTerm
        offers).  The divergences change shape but never disappear —
        the hallmark of a specification bug."""
        spec, graph = official_model
        suite = generate_test_cases(graph, por=True)
        config = RaftKvConfig(instrument_update_term=True)
        tester = _tester(spec, graph, config)
        outcome = tester.run_suite(suite, max_cases=60)
        assert outcome.failures
        # ...while plenty of cases (those whose schedules happen to agree
        # with the paired update+handle structure) still pass
        assert any(r.passed for r in outcome.results)

    def test_fixed_model_fixed_impl_conform(self):
        """Control: the same implementation against the fixed model."""
        spec = build_raft_spec(RaftSpecOptions(
            servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
            enable_restart=False, enable_drop=False, enable_duplicate=False,
            candidates=("n1",), spec_bugs=False, name="raft-fixed",
        ))
        graph = check(spec).graph
        suite = generate_test_cases(graph, por=True)
        tester = _tester(spec, graph, RaftKvConfig())
        outcome = tester.run_suite(suite, max_cases=40)
        assert outcome.passed, [r.divergence for r in outcome.failures][:3]
