"""Explicit fault-injection scenarios: the drop switch and the
duplicate re-injection path (Section 4.1.2's overridden actions)."""

import pytest

from repro.core import ControlledTester
from repro.core.testgen import label, scenario_case
from repro.specs.raft import FOLLOWER, NIL, RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)


def _rv_request(src, dst, term):
    return {"mtype": "RequestVoteRequest", "mterm": term, "mlastLogTerm": 0,
            "mlastLogIndex": 0, "msource": src, "mdest": dst}


def _spec(**kwargs):
    defaults = dict(servers=("n1", "n2", "n3"), max_term=1,
                    max_client_requests=0, enable_restart=True,
                    enable_drop=True, enable_duplicate=True,
                    candidates=("n1",), name="fault-scenarios")
    defaults.update(kwargs)
    return build_raft_spec(RaftSpecOptions(**defaults))


def _run(spec, schedule):
    graph, case = scenario_case(spec, schedule)
    config = XraftConfig()
    tester = ControlledTester(build_xraft_mapping(spec, config), graph,
                              lambda: make_xraft_cluster(("n1", "n2", "n3"),
                                                         config))
    return tester.run_case(case), case


class TestDropSwitch:
    def test_dropped_request_never_mutates_the_receiver(self):
        """The drop switch skips the handler body: after DropMessage the
        receiver's votedFor is untouched and a later resend succeeds."""
        spec = _spec()
        result, case = _run(spec, [
            label("Timeout", i="n1"),
            label("RequestVote", i="n1", j="n2"),
            label("DropMessage", m=_rv_request("n1", "n2", 1)),
            # after the loss the candidate re-solicits and wins the vote
            label("RequestVote", i="n1", j="n2"),
            label("HandleRequestVoteRequest", m=_rv_request("n1", "n2", 1)),
        ])
        assert result.passed, result.divergence
        # the drop step's verified state has the vote still unset
        drop_state = case.steps[2].expected_state
        assert drop_state.votedFor["n2"] == NIL
        assert case.final_state.votedFor["n2"] == "n1"

    def test_dropped_message_leaves_the_bag(self):
        spec = _spec()
        result, case = _run(spec, [
            label("Timeout", i="n1"),
            label("RequestVote", i="n1", j="n2"),
            label("DropMessage", m=_rv_request("n1", "n2", 1)),
        ])
        assert result.passed, result.divergence
        assert case.final_state.messages == {}


class TestDuplicateReinjection:
    def test_duplicate_is_handled_twice_idempotently(self):
        """A duplicated request flows through the normal receive path
        twice; the fixed implementation stays consistent with the spec's
        idempotent handling."""
        spec = _spec()
        request = _rv_request("n1", "n2", 1)
        result, case = _run(spec, [
            label("Timeout", i="n1"),
            label("RequestVote", i="n1", j="n2"),
            label("DuplicateMessage", m=request),
            label("HandleRequestVoteRequest", m=request),
            label("HandleRequestVoteRequest", m=request),
        ])
        assert result.passed, result.divergence
        # both copies consumed; both granted replies in flight
        final = case.final_state
        response = {"mtype": "RequestVoteResponse", "mterm": 1,
                    "mvoteGranted": True, "msource": "n2", "mdest": "n1"}
        from repro.tlaplus import bag_count

        assert bag_count(final.messages, request) == 0
        assert bag_count(final.messages, response) == 2


class TestCrashRestartScripts:
    def test_restart_step_checks_recovered_state(self):
        spec = _spec()
        result, case = _run(spec, [
            label("Timeout", i="n1"),
            label("Restart", i="n1"),
        ])
        assert result.passed, result.divergence
        final = case.final_state
        assert final.state["n1"] == FOLLOWER
        assert final.currentTerm["n1"] == 1   # persisted through the restart
        assert final.votedFor["n1"] == "n1"
