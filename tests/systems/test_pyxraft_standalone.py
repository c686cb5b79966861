"""pyxraft as a plain distributed system (no Mocket attached).

These tests drive elections and replication through the public node
API with real threads and the in-memory network — the system must
behave like Raft on its own before Mocket ever controls it.
"""

import time

import pytest

from repro.systems.pyxraft import Role, XraftConfig, make_xraft_cluster
from repro.systems.pyxraft.messages import (
    payload_from_spec_msg,
    spec_msg_from_payload,
)


def _wait_until(predicate, timeout=3.0, poll=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


@pytest.fixture()
def cluster():
    with make_xraft_cluster(("n1", "n2", "n3")) as c:
        yield c


class TestElection:
    def test_single_candidate_wins(self, cluster):
        n1 = cluster.node("n1")
        n1.trigger_timeout()
        for peer in n1.peers:
            n1.send_request_vote(peer)
        assert _wait_until(lambda: n1.role is Role.LEADER)
        assert n1.current_term == 1
        assert cluster.node("n2").voted_for == "n1"
        assert cluster.node("n3").voted_for == "n1"

    def test_second_candidate_rejected_same_term(self, cluster):
        n1, n2 = cluster.node("n1"), cluster.node("n2")
        n1.trigger_timeout()
        for peer in n1.peers:
            n1.send_request_vote(peer)
        assert _wait_until(lambda: n1.role is Role.LEADER)
        n2.trigger_timeout()  # same term would be 1... n2 moves to term 2
        assert n2.current_term == 2

    def test_votes_are_deduplicated(self, cluster):
        """The fixed implementation tolerates duplicated responses."""
        n1 = cluster.node("n1")
        n1.trigger_timeout()
        n1.handle_request_vote_response(
            {"type": "RequestVoteResponse", "term": 1, "granted": True,
             "src": "n2", "dst": "n1"})
        n1.handle_request_vote_response(
            {"type": "RequestVoteResponse", "term": 1, "granted": True,
             "src": "n2", "dst": "n1"})
        assert n1.votes_granted == frozenset({"n1", "n2"})

    def test_buggy_counter_counts_duplicates(self):
        config = XraftConfig(bug_duplicate_vote_count=True)
        with make_xraft_cluster(("n1", "n2", "n3"), config) as cluster:
            n1 = cluster.node("n1")
            n1.trigger_timeout()
            response = {"type": "RequestVoteResponse", "term": 1,
                        "granted": True, "src": "n2", "dst": "n1"}
            n1.handle_request_vote_response(response)
            n1.handle_request_vote_response(response)
            assert n1.votes_granted == 3  # 1 (self) + 2 duplicates


class TestReplication:
    def _elect(self, cluster):
        n1 = cluster.node("n1")
        n1.trigger_timeout()
        for peer in n1.peers:
            n1.send_request_vote(peer)
        assert _wait_until(lambda: n1.role is Role.LEADER)
        return n1

    def test_client_write_replicates_and_commits(self, cluster):
        n1 = self._elect(cluster)
        assert n1.client_request("hello")
        for peer in n1.peers:
            n1.send_append_entries(peer)
        assert _wait_until(
            lambda: cluster.node("n2").log == ((1, "hello"),)
            and cluster.node("n3").log == ((1, "hello"),)
        )
        assert _wait_until(lambda: n1.commit_index == 1)

    def test_client_write_rejected_on_follower(self, cluster):
        assert cluster.node("n2").client_request("nope") is False

    def test_follower_truncates_conflicts(self, cluster):
        n2 = cluster.node("n2")
        n2.handle_append_entries_request({
            "type": "AppendEntriesRequest", "term": 1, "prev_log_index": 0,
            "prev_log_term": 0, "entries": [[1, "stale"]], "commit_index": 0,
            "src": "n1", "dst": "n2",
        })
        assert n2.log == ((1, "stale"),)
        n2.handle_append_entries_request({
            "type": "AppendEntriesRequest", "term": 2, "prev_log_index": 0,
            "prev_log_term": 0, "entries": [[2, "fresh"]], "commit_index": 0,
            "src": "n3", "dst": "n2",
        })
        assert n2.log == ((2, "fresh"),)

    def test_mismatched_prev_rejected(self, cluster):
        n2 = cluster.node("n2")
        n2.handle_append_entries_request({
            "type": "AppendEntriesRequest", "term": 1, "prev_log_index": 3,
            "prev_log_term": 1, "entries": [[1, "x"]], "commit_index": 0,
            "src": "n1", "dst": "n2",
        })
        assert n2.log == ()


class TestPersistence:
    def test_term_vote_log_survive_restart(self, cluster):
        n1 = cluster.node("n1")
        n1.trigger_timeout()
        for peer in n1.peers:
            n1.send_request_vote(peer)
        assert _wait_until(lambda: n1.role is Role.LEADER)
        n1.client_request("v")
        restarted = cluster.restart_node("n1")
        assert restarted.current_term == 1
        assert restarted.voted_for == "n1"
        assert restarted.log == ((1, "v"),)
        assert restarted.role is Role.FOLLOWER      # volatile reset
        assert restarted.commit_index == 0

    def test_buggy_votedfor_lost_on_restart(self):
        config = XraftConfig(bug_votedfor_not_persisted=True)
        with make_xraft_cluster(("n1", "n2", "n3"), config) as cluster:
            n2 = cluster.node("n2")
            n2.handle_request_vote_request({
                "type": "RequestVoteRequest", "term": 1, "last_log_term": 0,
                "last_log_index": 0, "src": "n1", "dst": "n2",
            })
            assert n2.voted_for == "n1"
            restarted = cluster.restart_node("n2")
            assert restarted.voted_for is None  # the vote never hit the disk

    def test_correct_votedfor_survives_restart(self, cluster):
        n2 = cluster.node("n2")
        n2.handle_request_vote_request({
            "type": "RequestVoteRequest", "term": 1, "last_log_term": 0,
            "last_log_index": 0, "src": "n1", "dst": "n2",
        })
        restarted = cluster.restart_node("n2")
        assert restarted.voted_for == "n1"


class TestVoteFreshness:
    def test_stale_candidate_rejected(self, cluster):
        n2 = cluster.node("n2")
        n2.handle_append_entries_request({
            "type": "AppendEntriesRequest", "term": 1, "prev_log_index": 0,
            "prev_log_term": 0, "entries": [[1, "x"]], "commit_index": 0,
            "src": "n1", "dst": "n2",
        })
        sent = []
        original = n2.network.send
        n2.network.send = lambda src, dst, p: sent.append(p) or original(src, dst, p)
        n2.handle_request_vote_request({
            "type": "RequestVoteRequest", "term": 2, "last_log_term": 0,
            "last_log_index": 0, "src": "n3", "dst": "n2",
        })
        assert sent[-1]["granted"] is False
        assert n2.voted_for is None

    def test_buggy_stale_grant(self):
        config = XraftConfig(bug_stale_vote_grant=True)
        with make_xraft_cluster(("n1", "n2", "n3"), config) as cluster:
            n2 = cluster.node("n2")
            n2.handle_append_entries_request({
                "type": "AppendEntriesRequest", "term": 1, "prev_log_index": 0,
                "prev_log_term": 0, "entries": [[1, "x"]], "commit_index": 0,
                "src": "n1", "dst": "n2",
            })
            sent = []
            original = n2.network.send
            n2.network.send = lambda src, dst, p: sent.append(p) or original(src, dst, p)
            n2.handle_request_vote_request({
                "type": "RequestVoteRequest", "term": 2, "last_log_term": 0,
                "last_log_index": 0, "src": "n3", "dst": "n2",
            })
            assert sent[-1]["granted"] is True      # the forbidden grant
            assert n2.voted_for is None             # ...and it is not recorded


class TestMessageCodec:
    @pytest.mark.parametrize("msg", [
        {"mtype": "RequestVoteRequest", "mterm": 2, "mlastLogTerm": 1,
         "mlastLogIndex": 3, "msource": "n1", "mdest": "n2"},
        {"mtype": "RequestVoteResponse", "mterm": 2, "mvoteGranted": False,
         "msource": "n2", "mdest": "n1"},
        {"mtype": "AppendEntriesRequest", "mterm": 1, "mprevLogIndex": 0,
         "mprevLogTerm": 0, "mentries": ((1, 7),), "mcommitIndex": 0,
         "msource": "n1", "mdest": "n3"},
        {"mtype": "AppendEntriesResponse", "mterm": 1, "msuccess": True,
         "mmatchIndex": 1, "msource": "n3", "mdest": "n1"},
    ])
    def test_roundtrip(self, msg):
        assert spec_msg_from_payload(payload_from_spec_msg(msg)) == msg

    def test_unknown_types_rejected(self):
        with pytest.raises(ValueError):
            payload_from_spec_msg({"mtype": "Nope"})
        with pytest.raises(ValueError):
            spec_msg_from_payload({"type": "Nope"})
