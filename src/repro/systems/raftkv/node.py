"""The raftkv node: synchronous-RPC Raft with a small KV state machine.

Raft-java style: ``solicit_vote``/``replicate`` issue a *blocking* RPC —
the caller thread sends the request, waits for the reply envelope, and
then handles the response on the same thread.  The receiver serves each
incoming request on its own worker thread.  Committed log entries are
applied to an in-memory key/value store (the part clients see).
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Any, Dict, Optional, Tuple

from ...core.mapping import action_span, get_msg, mocket_receive, traced_field
from ...runtime.cluster import Cluster
from ...runtime.node import Node, NodeCrashed
from .config import RaftKvConfig

__all__ = ["KvRole", "RaftKvNode", "make_raftkv_cluster"]

RV_REQUEST = "RequestVoteRequest"
RV_RESPONSE = "RequestVoteResponse"
AE_REQUEST = "AppendEntriesRequest"
AE_RESPONSE = "AppendEntriesResponse"


class KvRole(enum.Enum):
    # NB: not an IntEnum — int-valued roles would compare equal to real
    # integers and corrupt the constant-translation table.
    FOLLOWER = "FOLLOWER"
    CANDIDATE = "CANDIDATE"
    LEADER = "LEADER"


def _last_term(log: Tuple[Tuple[int, Any], ...]) -> int:
    return log[-1][0] if log else 0


def spec_msg_of(body: Dict[str, Any]) -> Dict[str, Any]:
    """The spec message record corresponding to a wire body."""
    mtype = body["type"]
    if mtype == RV_REQUEST:
        return {"mtype": mtype, "mterm": body["term"],
                "mlastLogTerm": body["last_log_term"],
                "mlastLogIndex": body["last_log_index"],
                "msource": body["src"], "mdest": body["dst"]}
    if mtype == RV_RESPONSE:
        return {"mtype": mtype, "mterm": body["term"],
                "mvoteGranted": body["granted"],
                "msource": body["src"], "mdest": body["dst"]}
    if mtype == AE_REQUEST:
        return {"mtype": mtype, "mterm": body["term"],
                "mprevLogIndex": body["prev_log_index"],
                "mprevLogTerm": body["prev_log_term"],
                "mentries": tuple(tuple(e) for e in body["entries"]),
                "mcommitIndex": body["commit_index"],
                "msource": body["src"], "mdest": body["dst"]}
    if mtype == AE_RESPONSE:
        return {"mtype": mtype, "mterm": body["term"],
                "msuccess": body["success"], "mmatchIndex": body["match_index"],
                "msource": body["src"], "mdest": body["dst"]}
    raise ValueError(f"unknown body type {mtype!r}")


class _RpcWaiter:
    """One outstanding blocking RPC."""

    __slots__ = ("event", "reply")

    def __init__(self):
        self.event = threading.Event()
        self.reply = None


class RaftKvNode(Node):
    """One raftkv server."""

    role = traced_field("state")
    current_term = traced_field("currentTerm")
    voted_for = traced_field("votedFor")
    log = traced_field("log")
    commit_index = traced_field("commitIndex")
    votes_granted = traced_field("votesGranted")
    votes_responded = traced_field("votesResponded")
    next_index = traced_field("nextIndex")
    match_index = traced_field("matchIndex")

    RPC_TIMEOUT = 5.0

    def __init__(self, node_id: str, cluster: Cluster,
                 config: Optional[RaftKvConfig] = None):
        super().__init__(node_id, cluster)
        self.config = config or RaftKvConfig()
        # persistent state
        self.current_term = self.storage.get("currentTerm", 0)
        self.voted_for = self.storage.get("votedFor")
        self.log = tuple(tuple(e) for e in self.storage.get("log", ()))
        # volatile state
        self.role = KvRole.FOLLOWER
        self.commit_index = 0
        self.votes_granted = frozenset()
        self.votes_responded = frozenset()
        self.next_index = {p: 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self.kv: Dict[Any, Any] = {}
        self._applied = 0
        self._leadership_claimed = False
        self._rpc_seq = itertools.count(1)
        self._waiters: Dict[int, _RpcWaiter] = {}

    # -- lifecycle --------------------------------------------------------------
    def on_start(self) -> None:
        self.network.register(self.node_id)
        self.spawn(lambda: self.serve_inbox(self._on_mail),
                   name=f"{self.node_id}-inbox")

    def _on_mail(self, envelope) -> None:
        """Requests get a serving thread; replies go to the caller
        blocked in :meth:`_call_async`."""
        payload = envelope.payload
        if payload.get("kind") != "reply":
            self.spawn_handler(self._serve_and_reply, payload,
                               src=payload["src"])
            return
        waiter = self._waiters.pop(payload["rpc_id"], None)
        if waiter is not None:
            waiter.reply = payload["body"]
            # credit the parked caller before it wakes
            self.network.wake(waiter.event)
        else:
            # Orphaned reply: the caller that issued the RPC is gone
            # (typically a restart).  The response is still in
            # flight protocol-wise, so hand it to the handler.
            self.spawn(lambda: self._deliver_reply_safe(payload["body"]),
                       name=f"{self.node_id}-orphan-reply")

    def _deliver_reply_safe(self, reply: Dict[str, Any]) -> None:
        """Route a reply to its handler; re-mailbox it if the node dies
        before the handler ran (the reply is still in flight)."""
        try:
            self._deliver_reply(reply)
        except NodeCrashed:
            self.network.redeliver(self.node_id,
                                   {"kind": "reply", "rpc_id": -1, "body": reply})
            raise

    def _deliver_reply(self, reply: Dict[str, Any]) -> None:
        self._maybe_update_term(reply)
        if reply["type"] == RV_RESPONSE:
            self.handle_request_vote_response(reply)
        elif reply["type"] == AE_RESPONSE:
            self.handle_append_entries_response(reply)

    def _serve_and_reply(self, payload: Dict[str, Any]) -> None:
        body = self._serve(payload["body"])
        self.network.send(self.node_id, payload["src"], {
            "kind": "reply", "rpc_id": payload["rpc_id"], "body": body,
        })

    def _serve(self, body: Dict[str, Any]) -> Dict[str, Any]:
        self._maybe_update_term(body)
        if body["type"] == RV_REQUEST:
            return self.handle_request_vote_request(body)
        if body["type"] == AE_REQUEST:
            return self.handle_append_entries_request(body)
        raise ValueError(f"unknown request {body['type']!r}")

    def _maybe_update_term(self, body: Dict[str, Any]) -> None:
        """The official spec's standalone UpdateTerm, as a code-snippet
        action preceding the handler (only when the mapping asks for it)."""
        if not self.config.instrument_update_term:
            return
        if body["term"] <= self.current_term:
            return
        # UpdateTerm only exists in the spec-bug variants, not the
        # default model this system is linted against
        with action_span(self, "UpdateTerm", {"m": spec_msg_of(body)}):  # mocket: ignore[MCK204]
            with self.lock:
                if body["term"] > self.current_term:
                    self._step_down(body["term"])

    # -- persistence -------------------------------------------------------------------
    def _persist(self) -> None:
        self.storage.set("currentTerm", self.current_term)
        self.storage.set("votedFor", self.voted_for)
        self.storage.set("log", tuple(self.log))

    def _step_down(self, term: int) -> None:
        self.current_term = term
        self.role = KvRole.FOLLOWER
        self.voted_for = None
        self._persist()

    # -- elections ------------------------------------------------------------------------
    def trigger_timeout(self) -> None:
        """Election timeout: become candidate and vote for self."""
        with action_span(self, "Timeout", {"i": self.node_id}):
            with self.lock:
                self.role = KvRole.CANDIDATE
                self.current_term = self.current_term + 1
                self.voted_for = self.node_id
                self._persist()
                self.votes_granted = frozenset({self.node_id})
                self.votes_responded = frozenset({self.node_id})
                self._leadership_claimed = False

    def solicit_vote(self, peer: str) -> None:
        """One synchronous vote exchange with ``peer``.

        Raft-java shape: send the request (RequestVote action), block
        for the reply, then handle it (HandleRequestVoteResponse) on
        this same thread.
        """
        with action_span(self, "RequestVote", {"i": self.node_id, "j": peer}):
            with self.lock:
                term = self.current_term
                llt, lli = _last_term(self.log), len(self.log)
            request = {"type": RV_REQUEST, "term": term, "last_log_term": llt,
                       "last_log_index": lli, "src": self.node_id, "dst": peer}
            get_msg(self, "messages", mtype=RV_REQUEST, mterm=term,
                    mlastLogTerm=llt, mlastLogIndex=lli,
                    msource=self.node_id, mdest=peer)
            pending = self._call_async(peer, request)
        reply = pending()
        if reply is None:
            return
        if (self.config.bug_drop_higher_term_response
                and reply["term"] > self.current_term):
            # Raft-java issue #3: the higher-term response is discarded
            # without ever reaching the response handler.
            return
        self._deliver_reply_safe(reply)

    def _call_async(self, peer, request):
        """Issue the RPC inside the action, block for the reply after it.

        The send happens within the action span (it is part of the
        action's behaviour); the blocking wait happens outside, so the
        testbed can schedule the peer's handler in between.
        """
        rpc_id = next(self._rpc_seq)
        waiter = _RpcWaiter()
        self._waiters[rpc_id] = waiter
        self.network.send(self.node_id, peer, {
            "kind": "request", "rpc_id": rpc_id, "src": self.node_id,
            "body": request,
        })

        def wait() -> Optional[Dict[str, Any]]:
            try:
                self.wait_or_crash(waiter.event, timeout=self.RPC_TIMEOUT)
            except NodeCrashed:
                # a reply that raced the stop is still returned below:
                # _deliver_reply_safe re-mailboxes it, nothing is lost
                pass
            self._waiters.pop(rpc_id, None)
            return waiter.reply

        return wait

    @mocket_receive("HandleRequestVoteRequest", "messages",
                    msg=lambda self, body: spec_msg_of(body))
    def handle_request_vote_request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Serve a vote request; returns the RPC reply."""
        with self.lock:
            if body["term"] > self.current_term:
                self._step_down(body["term"])
            log_fresh = (
                body["last_log_term"] > _last_term(self.log)
                or (body["last_log_term"] == _last_term(self.log)
                    and body["last_log_index"] >= len(self.log))
            )
            grant = (body["term"] == self.current_term and log_fresh
                     and self.voted_for in (None, body["src"]))
            if grant:
                self.voted_for = body["src"]
                self._persist()
            term = self.current_term
        get_msg(self, "messages", mtype=RV_RESPONSE, mterm=term,
                mvoteGranted=grant, msource=self.node_id, mdest=body["src"])
        return {"type": RV_RESPONSE, "term": term, "granted": grant,
                "src": self.node_id, "dst": body["src"]}

    @mocket_receive("HandleRequestVoteResponse", "messages",
                    msg=lambda self, reply: spec_msg_of(reply))
    def handle_request_vote_response(self, reply: Dict[str, Any]) -> None:
        """Tally one vote reply on the soliciting thread."""
        with self.lock:
            if reply["term"] > self.current_term:
                self._step_down(reply["term"])
                return
            if reply["term"] < self.current_term:
                return
            self.votes_responded = self.votes_responded | {reply["src"]}
            if reply["granted"]:
                self.votes_granted = self.votes_granted | {reply["src"]}
            if (self.role is KvRole.CANDIDATE
                    and len(self.votes_granted) >= self.cluster.quorum_size
                    and not self._leadership_claimed):
                self._leadership_claimed = True
                if not self.mocket_controlled:
                    self.spawn(self.become_leader, name=f"{self.node_id}-lead")

    def become_leader(self) -> None:
        """Take leadership after winning the election."""
        with action_span(self, "BecomeLeader", {"i": self.node_id}):
            with self.lock:
                if self.role is not KvRole.CANDIDATE:
                    return
                self.role = KvRole.LEADER
                self.next_index = {p: len(self.log) + 1 for p in self.peers}
                self.match_index = {p: 0 for p in self.peers}

    # -- replication ----------------------------------------------------------------------
    def replicate(self, peer: str) -> None:
        """One synchronous AppendEntries exchange with ``peer``."""
        with action_span(self, "AppendEntries", {"i": self.node_id, "j": peer}):
            with self.lock:
                prev_index = self.next_index[peer] - 1
                prev_term = self.log[prev_index - 1][0] if prev_index > 0 else 0
                if self.next_index[peer] <= len(self.log):
                    entries = (self.log[self.next_index[peer] - 1],)
                else:
                    entries = ()
                commit = min(self.commit_index, prev_index + len(entries))
                term = self.current_term
            request = {
                "type": AE_REQUEST, "term": term, "prev_log_index": prev_index,
                "prev_log_term": prev_term,
                "entries": [list(e) for e in entries], "commit_index": commit,
                "src": self.node_id, "dst": peer,
            }
            get_msg(self, "messages", mtype=AE_REQUEST, mterm=term,
                    mprevLogIndex=prev_index, mprevLogTerm=prev_term,
                    mentries=entries, mcommitIndex=commit,
                    msource=self.node_id, mdest=peer)
            pending = self._call_async(peer, request)
        reply = pending()
        if reply is None:
            return
        self._deliver_reply_safe(reply)

    @mocket_receive("HandleAppendEntriesRequest", "messages",
                    msg=lambda self, body: spec_msg_of(body))
    def handle_append_entries_request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Serve a replication request; returns the RPC reply."""
        with self.lock:
            if body["term"] > self.current_term:
                self._step_down(body["term"])
            term = self.current_term
            if body["term"] < term:
                return self._append_reply(body, term, False, 0)
            if self.role is KvRole.CANDIDATE:
                self.role = KvRole.FOLLOWER
            prev = body["prev_log_index"]
            log_ok = prev == 0 or (
                prev <= len(self.log)
                and self.log[prev - 1][0] == body["prev_log_term"]
            )
            if not log_ok:
                return self._append_reply(body, term, False, 0)
            entries = tuple(tuple(e) for e in body["entries"])
            if self.config.bug_append_no_truncate:
                # Raft-java issue #19: conflicting suffixes are never
                # truncated; new entries pile up at the end of the log.
                self.log = self.log + entries
            else:
                self.log = self.log[:prev] + entries
            self._persist()
            self.commit_index = min(body["commit_index"], len(self.log))
            self._apply_committed()
            return self._append_reply(body, term, True, prev + len(entries))

    def _append_reply(self, body, term, success, match) -> Dict[str, Any]:
        get_msg(self, "messages", mtype=AE_RESPONSE, mterm=term,
                msuccess=success, mmatchIndex=match,
                msource=self.node_id, mdest=body["src"])
        return {"type": AE_RESPONSE, "term": term, "success": success,
                "match_index": match, "src": self.node_id, "dst": body["src"]}

    @mocket_receive("HandleAppendEntriesResponse", "messages",
                    msg=lambda self, reply: spec_msg_of(reply))
    def handle_append_entries_response(self, reply: Dict[str, Any]) -> None:
        """Advance/back off the replication cursor on the caller thread."""
        with self.lock:
            if reply["term"] > self.current_term:
                self._step_down(reply["term"])
                return
            if reply["term"] < self.current_term or self.role is not KvRole.LEADER:
                return
            peer = reply["src"]
            if reply["success"]:
                self.next_index = {**self.next_index, peer: reply["match_index"] + 1}
                self.match_index = {**self.match_index, peer: reply["match_index"]}
                if not self.mocket_controlled and self._commit_candidate() is not None:
                    self.spawn(self.advance_commit_index,
                               name=f"{self.node_id}-commit")
            else:
                self.next_index = {
                    **self.next_index, peer: max(self.next_index[peer] - 1, 1),
                }

    def _commit_candidate(self) -> Optional[int]:
        for k in range(len(self.log), self.commit_index, -1):
            agree = 1 + sum(1 for p in self.peers if self.match_index[p] >= k)
            if agree >= self.cluster.quorum_size and self.log[k - 1][0] == self.current_term:
                return k
        return None

    def advance_commit_index(self) -> None:
        """Commit the highest quorum-replicated index of this term."""
        with action_span(self, "AdvanceCommitIndex", {"i": self.node_id}):
            with self.lock:
                best = self._commit_candidate()
                if best is not None:
                    self.commit_index = best
                    self._apply_committed()

    # -- the KV state machine -----------------------------------------------------------------
    def _apply_committed(self) -> None:
        """Apply newly committed entries to the key/value store."""
        while self._applied < self.commit_index:
            self._applied += 1
            value = self.log[self._applied - 1][1]
            if isinstance(value, (list, tuple)) and len(value) == 2:
                self.kv[value[0]] = value[1]
            else:
                self.kv[value] = value

    def client_request(self, value: Any) -> bool:
        """The run_client.sh analogue: append one client write."""
        with action_span(self, "ClientRequest", {"i": self.node_id}):
            with self.lock:
                if self.role is not KvRole.LEADER:
                    return False
                self.log = self.log + ((self.current_term, value),)
                self._persist()
                return True

    def get(self, key: Any) -> Any:
        """Read a committed value from the state machine."""
        return self.kv.get(key)


def make_raftkv_cluster(node_ids=("n1", "n2", "n3"),
                        config: Optional[RaftKvConfig] = None) -> Cluster:
    """A fresh (undeployed) raftkv cluster."""
    cfg = config or RaftKvConfig()
    return Cluster(list(node_ids),
                   lambda node_id, cluster: RaftKvNode(node_id, cluster, cfg))
