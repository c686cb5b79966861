"""The pyxraft node: asynchronous Raft.

Communication is fire-and-forget: the inbox loop dispatches every
incoming message on its own worker thread (like Xraft's RPC executor),
so independent messages can be scheduled in any order by Mocket's
testbed.  Role transitions triggered *by* message handling
(``BecomeLeader``, ``AdvanceCommitIndex``) run as their own spawned
actions, mirroring Xraft's task queue.

Raft state that the protocol requires to be durable — ``currentTerm``,
``votedFor``, ``log`` — is written to the node's persistent store
(modulo the seeded persistence bug); everything else is volatile and
reset by a restart.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from ...core.mapping import get_msg, mocket_action, mocket_receive, traced_field
from ...runtime.cluster import Cluster
from ...runtime.node import Node
from .config import XraftConfig
from .messages import (
    AE_REQUEST,
    AE_RESPONSE,
    RV_REQUEST,
    RV_RESPONSE,
    spec_msg_from_payload,
)

__all__ = ["Role", "XraftNode", "make_xraft_cluster"]


class Role(enum.Enum):
    FOLLOWER = "STATE_FOLLOWER"
    CANDIDATE = "STATE_CANDIDATE"
    LEADER = "STATE_LEADER"


def _last_term(log: Tuple[Tuple[int, Any], ...]) -> int:
    return log[-1][0] if log else 0


class XraftNode(Node):
    """One pyxraft server."""

    role = traced_field("state")
    current_term = traced_field("currentTerm")
    voted_for = traced_field("votedFor")
    log = traced_field("log")
    commit_index = traced_field("commitIndex")
    votes_granted = traced_field("votesGranted")
    votes_responded = traced_field("votesResponded")
    next_index = traced_field("nextIndex")
    match_index = traced_field("matchIndex")

    def __init__(self, node_id: str, cluster: Cluster,
                 config: Optional[XraftConfig] = None):
        super().__init__(node_id, cluster)
        self.config = config or XraftConfig()
        # persistent state (survives restarts via the durable store)
        self.current_term = self.storage.get("currentTerm", 0)
        self.voted_for = self.storage.get("votedFor")
        self.log = tuple(tuple(e) for e in self.storage.get("log", ()))
        # volatile state
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.votes_granted = 0 if self.config.bug_duplicate_vote_count else frozenset()
        self.votes_responded = frozenset()
        # nextIndex is (re)initialized when leadership is won; until then it
        # holds the protocol's base value, as in raft.tla's Init/Restart.
        self.next_index = {p: 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self._leadership_claimed = False

    # -- lifecycle --------------------------------------------------------------
    def on_start(self) -> None:
        self.network.register(self.node_id)
        self.spawn(lambda: self.serve_inbox(self._on_mail),
                   name=f"{self.node_id}-inbox")

    def _on_mail(self, envelope) -> None:
        payload = envelope.payload
        self.spawn(lambda: self._dispatch_safe(payload),
                   name=f"{self.node_id}-handle-{payload.get('type')}")

    def _dispatch_safe(self, payload: Dict[str, Any]) -> None:
        """Handle one message; if the node dies before the handler runs,
        the message goes back to the mailbox (it is still in flight)."""
        from ...runtime.node import NodeCrashed

        try:
            self._dispatch(payload)
        except NodeCrashed:
            self.network.redeliver(self.node_id, payload)
            raise

    def _dispatch(self, payload: Dict[str, Any]) -> None:
        handlers = {
            RV_REQUEST: self.handle_request_vote_request,
            RV_RESPONSE: self.handle_request_vote_response,
            AE_REQUEST: self.handle_append_entries_request,
            AE_RESPONSE: self.handle_append_entries_response,
        }
        handler = handlers.get(payload.get("type"))
        if handler is not None:
            handler(payload)

    # -- persistence ----------------------------------------------------------------
    def _persist_term(self) -> None:
        self.storage.set("currentTerm", self.current_term)

    def _persist_vote(self) -> None:
        if self.config.bug_votedfor_not_persisted:
            return  # Xraft bug #2: the vote never reaches the disk
        self.storage.set("votedFor", self.voted_for)

    def _persist_log(self) -> None:
        self.storage.set("log", tuple(self.log))

    def _step_down(self, term: int) -> None:
        """Adopt a higher term: become follower, forget the vote."""
        self.current_term = term
        self.role = Role.FOLLOWER
        self.voted_for = None
        self._persist_term()
        self._persist_vote()

    # -- elections ---------------------------------------------------------------------
    @mocket_action("Timeout", params=lambda self: {"i": self.node_id})
    def trigger_timeout(self) -> None:
        """Election timeout: become candidate, vote for self."""
        with self.lock:
            self.role = Role.CANDIDATE
            self.current_term = self.current_term + 1
            self.voted_for = self.node_id
            self._persist_term()
            self._persist_vote()
            if self.config.bug_duplicate_vote_count:
                self.votes_granted = 1
            else:
                self.votes_granted = frozenset({self.node_id})
            self.votes_responded = frozenset({self.node_id})
            self._leadership_claimed = False

    @mocket_action("RequestVote",
                   params=lambda self, peer: {"i": self.node_id, "j": peer})
    def send_request_vote(self, peer: str) -> None:
        """Solicit ``peer``'s vote for the current term."""
        with self.lock:
            term = self.current_term
            llt, lli = self._advertised_log()
        get_msg(self, "messages", mtype=RV_REQUEST, mterm=term,
                mlastLogTerm=llt, mlastLogIndex=lli,
                msource=self.node_id, mdest=peer)
        self.network.send(self.node_id, peer, {
            "type": RV_REQUEST, "term": term, "last_log_term": llt,
            "last_log_index": lli, "src": self.node_id, "dst": peer,
        })

    def _advertised_log(self) -> Tuple[int, int]:
        """(lastLogTerm, lastLogIndex) the candidate advertises."""
        return _last_term(self.log), len(self.log)

    @mocket_receive("HandleRequestVoteRequest", "messages",
                    msg=lambda self, payload: spec_msg_from_payload(payload))
    def handle_request_vote_request(self, payload: Dict[str, Any]) -> None:
        """Decide whether to grant the requested vote."""
        with self.lock:
            if payload["term"] > self.current_term:
                self._step_down(payload["term"])
            votable = (payload["term"] == self.current_term
                       and self.voted_for in (None, payload["src"]))
            grant = votable and self._candidate_log_fresh(payload)
            record_vote = grant
            if (not grant and votable and self.config.bug_stale_vote_grant
                    and self._candidate_log_fresh(payload, committed_only=True)):
                # Xraft bug #3: the grant path consults the committed
                # prefix, answers granted=true, and never stores the vote.
                grant = True
            if record_vote:
                self.voted_for = payload["src"]
                self._persist_vote()
            term = self.current_term
        get_msg(self, "messages", mtype=RV_RESPONSE, mterm=term,
                mvoteGranted=grant, msource=self.node_id, mdest=payload["src"])
        self.network.send(self.node_id, payload["src"], {
            "type": RV_RESPONSE, "term": term, "granted": grant,
            "src": self.node_id, "dst": payload["src"],
        })

    def _candidate_log_fresh(self, payload: Dict[str, Any],
                             committed_only: bool = False) -> bool:
        """Raft's log-freshness rule for granting votes.

        ``committed_only`` is the comparison the seeded Xraft bug #3
        consults: only the committed prefix counts, so uncommitted local
        entries do not protect against a stale candidate.
        """
        local = self.log[: self.commit_index] if committed_only else self.log
        if payload["last_log_term"] != _last_term(local):
            return payload["last_log_term"] > _last_term(local)
        return payload["last_log_index"] >= len(local)

    @mocket_receive("HandleRequestVoteResponse", "messages",
                    msg=lambda self, payload: spec_msg_from_payload(payload))
    def handle_request_vote_response(self, payload: Dict[str, Any]) -> None:
        """Tally one vote response; claim leadership on quorum."""
        with self.lock:
            if payload["term"] > self.current_term:
                self._step_down(payload["term"])
                return
            if payload["term"] < self.current_term:
                return  # stale response
            self.votes_responded = self.votes_responded | {payload["src"]}
            if payload["granted"]:
                if self.config.bug_duplicate_vote_count:
                    # Xraft bug #1: a counter cannot deduplicate responses
                    self.votes_granted = self.votes_granted + 1
                else:
                    self.votes_granted = self.votes_granted | {payload["src"]}
            quorum = self.cluster.quorum_size
            count = (self.votes_granted
                     if self.config.bug_duplicate_vote_count
                     else len(self.votes_granted))
            if (self.role is Role.CANDIDATE and count >= quorum
                    and not self._leadership_claimed):
                self._leadership_claimed = True
                # Standalone: claim leadership ourselves.  Under Mocket the
                # BecomeLeader action is scheduled by the testbed instead.
                if not self.mocket_controlled:
                    self.spawn(self.become_leader, name=f"{self.node_id}-lead")

    @mocket_action("BecomeLeader", params=lambda self: {"i": self.node_id})
    def become_leader(self) -> None:
        """Take leadership after winning the election."""
        with self.lock:
            if self.role is not Role.CANDIDATE:
                return
            self.role = Role.LEADER
            self.next_index = {p: len(self.log) + 1 for p in self.peers}
            self.match_index = {p: 0 for p in self.peers}

    # -- log replication ------------------------------------------------------------------
    @mocket_action("AppendEntries",
                   params=lambda self, peer: {"i": self.node_id, "j": peer})
    def send_append_entries(self, peer: str) -> None:
        """Replicate the next entry to ``peer`` (or heartbeat)."""
        with self.lock:
            prev_index = self.next_index[peer] - 1
            prev_term = self.log[prev_index - 1][0] if prev_index > 0 else 0
            if self.next_index[peer] <= len(self.log):
                entries = (self.log[self.next_index[peer] - 1],)
            else:
                entries = ()
            commit = min(self.commit_index, prev_index + len(entries))
            term = self.current_term
        get_msg(self, "messages", mtype=AE_REQUEST, mterm=term,
                mprevLogIndex=prev_index, mprevLogTerm=prev_term,
                mentries=entries, mcommitIndex=commit,
                msource=self.node_id, mdest=peer)
        self.network.send(self.node_id, peer, {
            "type": AE_REQUEST, "term": term, "prev_log_index": prev_index,
            "prev_log_term": prev_term, "entries": [list(e) for e in entries],
            "commit_index": commit, "src": self.node_id, "dst": peer,
        })

    @mocket_receive("HandleAppendEntriesRequest", "messages",
                    msg=lambda self, payload: spec_msg_from_payload(payload))
    def handle_append_entries_request(self, payload: Dict[str, Any]) -> None:
        """Append replicated entries after the consistency check."""
        with self.lock:
            if payload["term"] > self.current_term:
                self._step_down(payload["term"])
            if payload["term"] < self.current_term:
                self._reply_append(payload, success=False, match=0)
                return
            if self.role is Role.CANDIDATE:
                self.role = Role.FOLLOWER  # a leader of our term exists
            prev = payload["prev_log_index"]
            log_ok = prev == 0 or (
                prev <= len(self.log) and self.log[prev - 1][0] == payload["prev_log_term"]
            )
            if not log_ok:
                self._reply_append(payload, success=False, match=0)
                return
            entries = tuple(tuple(e) for e in payload["entries"])
            self.log = self.log[:prev] + entries
            self._persist_log()
            self.commit_index = min(payload["commit_index"], len(self.log))
            self._reply_append(payload, success=True, match=prev + len(entries))

    def _reply_append(self, payload: Dict[str, Any], success: bool, match: int) -> None:
        term = self.current_term
        get_msg(self, "messages", mtype=AE_RESPONSE, mterm=term,
                msuccess=success, mmatchIndex=match,
                msource=self.node_id, mdest=payload["src"])
        self.network.send(self.node_id, payload["src"], {
            "type": AE_RESPONSE, "term": term, "success": success,
            "match_index": match, "src": self.node_id, "dst": payload["src"],
        })

    @mocket_receive("HandleAppendEntriesResponse", "messages",
                    msg=lambda self, payload: spec_msg_from_payload(payload))
    def handle_append_entries_response(self, payload: Dict[str, Any]) -> None:
        """Advance or back off the peer's replication cursor."""
        with self.lock:
            if payload["term"] > self.current_term:
                self._step_down(payload["term"])
                return
            if payload["term"] < self.current_term or self.role is not Role.LEADER:
                return
            peer = payload["src"]
            if payload["success"]:
                self.next_index = {**self.next_index, peer: payload["match_index"] + 1}
                self.match_index = {**self.match_index, peer: payload["match_index"]}
                # Standalone: advance the commit index ourselves.  Under
                # Mocket the AdvanceCommitIndex action is scheduled instead.
                if not self.mocket_controlled and self._commit_candidate() is not None:
                    self.spawn(self.advance_commit_index,
                               name=f"{self.node_id}-commit")
            else:
                self.next_index = {
                    **self.next_index,
                    peer: max(self.next_index[peer] - 1, 1),
                }

    def _commit_candidate(self) -> Optional[int]:
        """The highest index committable under Raft's quorum rule."""
        for k in range(len(self.log), self.commit_index, -1):
            agree = 1 + sum(1 for p in self.peers if self.match_index[p] >= k)
            if agree >= self.cluster.quorum_size and self.log[k - 1][0] == self.current_term:
                return k
        return None

    @mocket_action("AdvanceCommitIndex", params=lambda self: {"i": self.node_id})
    def advance_commit_index(self) -> None:
        """Commit the highest quorum-replicated index of this term."""
        with self.lock:
            best = self._commit_candidate()
            if best is not None:
                self.commit_index = best

    # -- client API ------------------------------------------------------------------------
    @mocket_action("ClientRequest", params=lambda self, value: {"i": self.node_id})
    def client_request(self, value: Any) -> bool:
        """Append a client write to the leader's log."""
        with self.lock:
            if self.role is not Role.LEADER:
                return False
            self.log = self.log + ((self.current_term, value),)
            self._persist_log()
            return True


def make_xraft_cluster(node_ids=("n1", "n2", "n3"),
                       config: Optional[XraftConfig] = None) -> Cluster:
    """A fresh (undeployed) pyxraft cluster."""
    cfg = config or XraftConfig()
    return Cluster(list(node_ids),
                   lambda node_id, cluster: XraftNode(node_id, cluster, cfg))
