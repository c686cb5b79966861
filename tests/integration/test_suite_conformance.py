"""Suite-based conformance: generated test suites against correct systems.

These are the paper's steady-state runs: model-check a model, generate
the EC+POR suite, drive the (correct) implementation through it — no
divergence may be reported.  They also demonstrate suite-based *bug
finding* (the paper's mode of discovery) for a shallow bug.
"""

import pytest

from repro.core import (
    ControlledTester,
    DivergenceKind,
    generate_test_cases,
)
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.systems.minizk import (
    MiniZkConfig,
    build_minizk_mapping,
    make_minizk_cluster,
)
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)
from repro.systems.raftkv import (
    RaftKvConfig,
    build_raftkv_mapping,
    make_raftkv_cluster,
)
from repro.tlaplus import check


@pytest.fixture(scope="module")
def election_model():
    """A complete single-candidate election model (104 states)."""
    spec = build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1",), name="election",
    ))
    graph = check(spec).graph
    return spec, graph


@pytest.fixture(scope="module")
def fault_model():
    """The election model plus restart/drop/duplicate faults."""
    spec = build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=True, enable_drop=True, enable_duplicate=True,
        max_restarts=1, max_drops=1, max_duplicates=1,
        candidates=("n1",), name="election-faults",
    ))
    graph = check(spec).graph
    return spec, graph


class TestXraftConformance:
    def test_full_election_suite_passes(self, election_model):
        spec, graph = election_model
        suite = generate_test_cases(graph, por=True)
        config = XraftConfig()
        tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                                  lambda: make_xraft_cluster(("n1", "n2", "n3"), config))
        result = tester.run_suite(suite)
        assert result.passed, [r.divergence for r in result.failures][:3]
        assert len(result.results) == len(suite)

    def test_fault_suite_sample_passes(self, fault_model):
        spec, graph = fault_model
        suite = generate_test_cases(graph, por=True)
        config = XraftConfig()
        tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                                  lambda: make_xraft_cluster(("n1", "n2", "n3"), config))
        result = tester.run_suite(suite, max_cases=40)
        assert result.passed, [r.divergence for r in result.failures][:3]

    def test_suite_finds_duplicate_vote_bug(self, fault_model):
        """The paper's discovery mode: run generated cases until one
        diverges.  The duplicate-vote bug (Xraft #1) falls out of the
        fault suite without any scenario guidance."""
        spec, graph = fault_model
        suite = generate_test_cases(graph, por=True)
        config = XraftConfig(bug_duplicate_vote_count=True)
        tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                                  lambda: make_xraft_cluster(("n1", "n2", "n3"), config))
        result = tester.run_suite(suite, stop_on_divergence=True, max_cases=400)
        divergence = result.first_divergence()
        assert divergence is not None
        assert divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "votesGranted" in divergence.variable_names

    def test_suite_finds_votedfor_persistence_bug(self, fault_model):
        spec, graph = fault_model
        suite = generate_test_cases(graph, por=True)
        config = XraftConfig(bug_votedfor_not_persisted=True)
        tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                                  lambda: make_xraft_cluster(("n1", "n2", "n3"), config))
        result = tester.run_suite(suite, stop_on_divergence=True, max_cases=400)
        divergence = result.first_divergence()
        assert divergence is not None
        assert divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "votedFor" in divergence.variable_names


class TestRaftKvConformance:
    def test_full_election_suite_passes(self, election_model):
        spec_src, graph_src = election_model
        spec = build_raft_spec(RaftSpecOptions(
            servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
            enable_restart=False, enable_drop=False, enable_duplicate=False,
            candidates=("n1",), name="election",
        ))
        graph = check(spec).graph
        suite = generate_test_cases(graph, por=True)
        config = RaftKvConfig()
        tester = ControlledTester(build_raftkv_mapping(spec, config), graph,
                                  lambda: make_raftkv_cluster(("n1", "n2", "n3"), config))
        result = tester.run_suite(suite)
        assert result.passed, [r.divergence for r in result.failures][:3]


class TestMiniZkConformance:
    def test_election_suite_sample_passes(self):
        spec = build_zab_spec(ZabSpecOptions(
            servers=("n1", "n2", "n3"), max_elections=1,
            max_crashes=0, max_restarts=0, starters=("n3",), name="zab-elect",
        ))
        graph = check(spec, max_states=30000).graph
        suite = generate_test_cases(graph, por=True)
        assert len(suite) >= 1
        config = MiniZkConfig()
        tester = ControlledTester(build_minizk_mapping(spec, config), graph,
                                  lambda: make_minizk_cluster(("n1", "n2", "n3"), config))
        result = tester.run_suite(suite, max_cases=40)
        assert result.passed, [r.divergence for r in result.failures][:3]
