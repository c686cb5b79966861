"""Table 2 end-to-end: all nine bugs, with the paper's divergence kinds.

Every scenario schedule is verified against the specification (the
expected states are computed, not hand-written); the correct
implementation passes it, and the seeded bug produces exactly the
divergence kind Table 2 reports.
"""

import pytest

from repro.core import ControlledTester, DivergenceKind
from repro.systems.minizk import (
    MiniZkConfig,
    build_minizk_mapping,
    make_minizk_cluster,
)
from repro.systems.minizk.scenarios import zk_bug_1419, zk_bug_1653
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)
from repro.systems.pyxraft.scenarios import xraft_bug1, xraft_bug2, xraft_bug3
from repro.systems.raftkv import (
    RaftKvConfig,
    build_raftkv_mapping,
    make_raftkv_cluster,
)
from repro.systems.raftkv.scenarios import (
    raft_spec_bug_missing_reply,
    raft_spec_bug_update_term,
    raftkv_bug1,
    raftkv_bug2,
)


def _xraft_tester(scenario, config):
    return ControlledTester(
        build_xraft_mapping(scenario.spec, config), scenario.graph,
        lambda: make_xraft_cluster(scenario.servers, config),
    )


def _raftkv_tester(scenario, config):
    return ControlledTester(
        build_raftkv_mapping(scenario.spec, config), scenario.graph,
        lambda: make_raftkv_cluster(scenario.servers, config),
    )


def _minizk_tester(scenario, config):
    return ControlledTester(
        build_minizk_mapping(scenario.spec, config), scenario.graph,
        lambda: make_minizk_cluster(scenario.servers, config),
    )


class TestXraftBugs:
    def test_bug1_duplicate_vote_counted_twice(self):
        scenario = xraft_bug1()
        assert len(scenario.case) == 6  # Table 2: 6 actions
        assert _xraft_tester(scenario, XraftConfig()).run_case(scenario.case).passed
        result = _xraft_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "votesGranted" in result.divergence.variable_names

    def test_bug2_restart_forgets_vote(self):
        scenario = xraft_bug2()
        assert len(scenario.case) == 9  # Table 2: 9 actions
        assert _xraft_tester(scenario, XraftConfig()).run_case(scenario.case).passed
        result = _xraft_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "votedFor" in result.divergence.variable_names
        # the divergence is observed right after the Restart fault
        assert scenario.case.steps[result.divergence.step_index].label.name == "Restart"

    def test_bug3_stale_candidate_collects_votes(self):
        scenario = xraft_bug3()
        assert len(scenario.case) == 15  # deep case (paper: 19 actions)
        assert _xraft_tester(scenario, XraftConfig()).run_case(scenario.case).passed
        result = _xraft_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.UNEXPECTED_ACTION
        assert result.divergence.action == "HandleRequestVoteResponse"

    def test_bug_reports_carry_the_schedule(self):
        scenario = xraft_bug1()
        result = _xraft_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        report = result.bug_report()
        assert report["kind"] == "inconsistent_state"
        assert "DuplicateMessage" in report["schedule"]


class TestRaftKvBugs:
    def test_bug1_dropped_higher_term_response(self):
        scenario = raftkv_bug1()
        assert _raftkv_tester(scenario, RaftKvConfig()).run_case(scenario.case).passed
        result = _raftkv_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert result.divergence.action == "HandleRequestVoteResponse"

    def test_bug2_conflicting_entries_not_truncated(self):
        scenario = raftkv_bug2()
        assert _raftkv_tester(scenario, RaftKvConfig()).run_case(scenario.case).passed
        result = _raftkv_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "log" in result.divergence.variable_names


class TestRaftSpecBugs:
    """The fixed implementation against the official (buggy) spec."""

    def test_standalone_update_term_is_missing_action(self):
        scenario = raft_spec_bug_update_term()
        result = _raftkv_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert result.divergence.action == "UpdateTerm"

    def test_missing_reply_branch_diverges_on_messages(self):
        scenario = raft_spec_bug_missing_reply()
        result = _raftkv_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "messages" in result.divergence.variable_names
        # the divergence is at the Figure 11 branch: the candidate's
        # AppendEntries handling
        step = scenario.case.steps[result.divergence.step_index]
        assert step.label.name == "HandleAppendEntriesRequest"

    def test_fixed_spec_accepts_the_same_behaviour(self):
        """With the spec bugs fixed, the same election + step-down flow
        passes — the inconsistency really is the spec's fault."""
        from repro.core.testgen import label, scenario_case
        from repro.specs.raft import RaftSpecOptions, build_raft_spec

        spec = build_raft_spec(RaftSpecOptions(
            servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
            enable_restart=False, enable_drop=False, enable_duplicate=False,
            candidates=("n1", "n2"), spec_bugs=False, name="raft-fixed-spec",
        ))
        schedule = [
            label("Timeout", i="n1"),
            label("Timeout", i="n2"),
            label("RequestVote", i="n2", j="n3"),
            label("HandleRequestVoteRequest",
                  m={"mtype": "RequestVoteRequest", "mterm": 1,
                     "mlastLogTerm": 0, "mlastLogIndex": 0,
                     "msource": "n2", "mdest": "n3"}),
            label("HandleRequestVoteResponse",
                  m={"mtype": "RequestVoteResponse", "mterm": 1,
                     "mvoteGranted": True, "msource": "n3", "mdest": "n2"}),
            label("BecomeLeader", i="n2"),
            label("AppendEntries", i="n2", j="n1"),
            label("HandleAppendEntriesRequest",
                  m={"mtype": "AppendEntriesRequest", "mterm": 1,
                     "mprevLogIndex": 0, "mprevLogTerm": 0, "mentries": (),
                     "mcommitIndex": 0, "msource": "n2", "mdest": "n1"}),
        ]
        graph, case = scenario_case(spec, schedule)
        config = RaftKvConfig()
        tester = ControlledTester(
            build_raftkv_mapping(spec, config), graph,
            lambda: make_raftkv_cluster(("n1", "n2", "n3"), config),
        )
        assert tester.run_case(case).passed


class TestZooKeeperBugs:
    def test_zk1419_election_never_settles(self):
        scenario = zk_bug_1419()
        assert _minizk_tester(scenario, MiniZkConfig()).run_case(scenario.case).passed
        result = _minizk_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.UNEXPECTED_ACTION
        assert result.divergence.action == "HandleVote"

    def test_zk1653_inconsistent_epoch_blocks_startup(self):
        scenario = zk_bug_1653()
        assert _minizk_tester(scenario, MiniZkConfig()).run_case(scenario.case).passed
        result = _minizk_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert result.divergence.action == "StartElection"

    def test_zk1653_detected_after_the_restart(self):
        scenario = zk_bug_1653()
        result = _minizk_tester(scenario, scenario.buggy_config).run_case(scenario.case)
        names = [s.label.name for s in scenario.case.steps]
        assert names.index("Restart") < result.divergence.step_index
