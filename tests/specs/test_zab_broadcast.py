"""Tests for the ZAB broadcast stage (proposal → ack → commit)."""

import pytest

from repro.core.testgen import label, scenario_case
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.tlaplus import bag_count


def _spec(**kwargs):
    defaults = dict(servers=("n1", "n2", "n3"), max_elections=1,
                    max_crashes=1, max_restarts=1, max_client_requests=2,
                    starters=("n3",), name="zab-bcast-test")
    defaults.update(kwargs)
    return build_zab_spec(ZabSpecOptions(**defaults))


def _vote(src, dst, rnd, vote):
    return {"mtype": "Vote", "mround": rnd, "mvote": tuple(vote),
            "msource": src, "mdest": dst}


_SYNCED_PREFIX = [
    label("StartElection", i="n3"),
    label("HandleVote", m=_vote("n3", "n2", 1, (0, "n3"))),
    label("BecomeFollowing", i="n2"),
    label("HandleVote", m=_vote("n2", "n3", 1, (0, "n3"))),
    label("BecomeLeading", i="n3"),
    label("SendLeaderInfo", i="n3", j="n2"),
    label("HandleLeaderInfo",
          m={"mtype": "LeaderInfo", "mepoch": 1, "msource": "n3", "mdest": "n2"}),
    label("HandleAckEpoch",
          m={"mtype": "AckEpoch", "mepoch": 1, "msource": "n2", "mdest": "n3"}),
    label("HandleNewLeader",
          m={"mtype": "NewLeader", "mepoch": 1, "msource": "n3", "mdest": "n2"}),
    label("HandleAck",
          m={"mtype": "Ack", "mepoch": 1, "msource": "n2", "mdest": "n3"}),
]


def _state_after(spec, extra):
    _, case = scenario_case(spec, _SYNCED_PREFIX + list(extra))
    return case.final_state


def _apply(spec, state, name, **params):
    decl = spec.actions[name]
    successor = spec.apply(decl, state, params)
    assert successor is not None, f"{name}({params}) not enabled"
    return successor


class TestClientRequest:
    def test_appends_to_leader_history(self):
        spec = _spec()
        state = _state_after(spec, [label("ClientRequest", i="n3")])
        assert state.history["n3"] == ((1, 1),)
        assert state.lastZxid["n3"] == 1
        assert state.proposalAcks["n3"][1] == frozenset({"n3"})

    def test_requires_completed_sync(self):
        spec = _spec()
        _, case = scenario_case(spec, _SYNCED_PREFIX[:5])  # leader, no sync
        decl = spec.actions["ClientRequest"]
        assert spec.apply(decl, case.final_state, {"i": "n3"}) is None

    def test_only_on_leader(self):
        spec = _spec()
        state = _state_after(spec, [])
        decl = spec.actions["ClientRequest"]
        assert spec.apply(decl, state, {"i": "n2"}) is None

    def test_bounded_by_counter(self):
        spec = _spec(max_client_requests=1)
        state = _state_after(spec, [label("ClientRequest", i="n3")])
        decl = spec.actions["ClientRequest"]
        assert spec.apply(decl, state, {"i": "n3"}) is None


class TestProposalFlow:
    def _proposal(self, zxid=1, value=1):
        return {"mtype": "Proposal", "mzxid": zxid, "mvalue": value,
                "msource": "n3", "mdest": "n2"}

    def test_send_proposal_targets_behind_follower(self):
        spec = _spec()
        state = _state_after(spec, [label("ClientRequest", i="n3")])
        state = _apply(spec, state, "SendProposal", i="n3", j="n2")
        assert bag_count(state.bc_msgs, self._proposal()) == 1
        # not re-sent while in flight (session discipline)
        decl = spec.actions["SendProposal"]
        assert spec.apply(decl, state, {"i": "n3", "j": "n2"}) is None

    def test_send_proposal_skips_unsynced_follower(self):
        spec = _spec()
        state = _state_after(spec, [label("ClientRequest", i="n3")])
        decl = spec.actions["SendProposal"]
        # n1 never completed the epoch handshake
        assert spec.apply(decl, state, {"i": "n3", "j": "n1"}) is None

    def test_follower_logs_and_acks(self):
        spec = _spec()
        state = _state_after(spec, [
            label("ClientRequest", i="n3"),
            label("SendProposal", i="n3", j="n2"),
            label("HandleProposal", m=self._proposal()),
        ])
        assert state.history["n2"] == ((1, 1),)
        assert state.lastZxid["n2"] == 1
        ack = {"mtype": "ProposalAck", "mzxid": 1, "msource": "n2", "mdest": "n3"}
        assert bag_count(state.bc_msgs, ack) == 1

    def test_quorum_ack_commits_on_leader(self):
        spec = _spec()
        state = _state_after(spec, [
            label("ClientRequest", i="n3"),
            label("SendProposal", i="n3", j="n2"),
            label("HandleProposal", m=self._proposal()),
            label("HandleProposalAck",
                  m={"mtype": "ProposalAck", "mzxid": 1,
                     "msource": "n2", "mdest": "n3"}),
        ])
        assert state.committed["n3"] == 1

    def test_commit_propagates_to_follower(self):
        spec = _spec()
        state = _state_after(spec, [
            label("ClientRequest", i="n3"),
            label("SendProposal", i="n3", j="n2"),
            label("HandleProposal", m=self._proposal()),
            label("HandleProposalAck",
                  m={"mtype": "ProposalAck", "mzxid": 1,
                     "msource": "n2", "mdest": "n3"}),
            label("SendCommit", i="n3", j="n2"),
            label("HandleCommit",
                  m={"mtype": "Commit", "mzxid": 1, "msource": "n3",
                     "mdest": "n2"}),
        ])
        assert state.committed["n2"] == 1

    def test_restart_resets_committed_keeps_history(self):
        spec = _spec()
        state = _state_after(spec, [
            label("ClientRequest", i="n3"),
            label("SendProposal", i="n3", j="n2"),
            label("HandleProposal", m=self._proposal()),
            label("Crash", i="n2"),
            label("Restart", i="n2"),
        ])
        assert state.history["n2"] == ((1, 1),)   # persistent
        assert state.lastZxid["n2"] == 1          # persistent
        assert state.committed["n2"] == 0         # volatile


class TestControlledBroadcast:
    def test_full_pipeline_scenario_passes(self):
        from repro.core import ControlledTester
        from repro.systems.minizk import (
            MiniZkConfig, build_minizk_mapping, make_minizk_cluster,
        )

        spec = _spec(max_client_requests=1, max_crashes=0, max_restarts=0)
        schedule = _SYNCED_PREFIX + [
            label("ClientRequest", i="n3"),
            label("SendProposal", i="n3", j="n2"),
            label("HandleProposal",
                  m={"mtype": "Proposal", "mzxid": 1, "mvalue": 1,
                     "msource": "n3", "mdest": "n2"}),
            label("HandleProposalAck",
                  m={"mtype": "ProposalAck", "mzxid": 1,
                     "msource": "n2", "mdest": "n3"}),
            label("SendCommit", i="n3", j="n2"),
            label("HandleCommit",
                  m={"mtype": "Commit", "mzxid": 1,
                     "msource": "n3", "mdest": "n2"}),
        ]
        graph, case = scenario_case(spec, schedule)
        config = MiniZkConfig()
        tester = ControlledTester(
            build_minizk_mapping(spec, config), graph,
            lambda: make_minizk_cluster(("n1", "n2", "n3"), config),
        )
        result = tester.run_case(case)
        assert result.passed, result.divergence
