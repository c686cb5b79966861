"""The paper's end-state workflow: "if developers want to test leader
election in Raft, they can set the state that is generated by a
BecomeLeader action as an end state" (Section 4.2.1)."""

import pytest

from repro.core import ControlledTester, generate_test_cases
from repro.core.testgen import reached_by, state_matching, union
from repro.specs.raft import LEADER, RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)
from repro.tlaplus import check


@pytest.fixture(scope="module")
def model():
    spec = build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1",), name="election-endstate",
    ))
    return spec, check(spec).graph


class TestBecomeLeaderEndState:
    def test_suite_shrinks_to_election_prefixes(self, model):
        spec, graph = model
        full = generate_test_cases(graph, por=False)
        bounded = generate_test_cases(graph, por=False,
                                      end_states=reached_by("BecomeLeader"))
        assert bounded.total_actions() < full.total_actions()

    def test_paths_stop_at_leadership(self, model):
        spec, graph = model
        suite = generate_test_cases(graph, por=False,
                                    end_states=reached_by("BecomeLeader"))
        for case in suite:
            names = case.action_names()
            if "BecomeLeader" in names:
                # a path that elects stops right there
                assert names[-1] == "BecomeLeader"
                assert case.final_state.state["n1"] == LEADER

    def test_bounded_suite_runs_clean(self, model):
        spec, graph = model
        suite = generate_test_cases(graph, por=True,
                                    end_states=reached_by("BecomeLeader"))
        config = XraftConfig()
        tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                                  lambda: make_xraft_cluster(("n1", "n2", "n3"),
                                                             config))
        outcome = tester.run_suite(suite, max_cases=25)
        assert outcome.passed, [r.divergence for r in outcome.failures][:3]

    def test_state_predicate_equivalent(self, model):
        """`state_matching` can express the same end condition."""
        spec, graph = model
        by_action = reached_by("BecomeLeader")(graph)
        by_state = state_matching(
            lambda s: any(s.state[i] == LEADER for i in ("n1", "n2", "n3"))
        )(graph)
        assert by_action <= by_state  # every just-elected state has a leader

    def test_union_combinator_on_real_graph(self, model):
        spec, graph = model
        combined = union(reached_by("BecomeLeader"),
                         reached_by("Timeout"))(graph)
        assert reached_by("BecomeLeader")(graph) <= combined
        assert reached_by("Timeout")(graph) <= combined
