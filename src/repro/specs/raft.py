"""The Raft consensus specification (after ongardie/raft.tla).

Transcribed from the official Raft TLA+ specification [9] with the
modifications the paper makes to fit each target implementation:

* the **xraft variant** models asynchronous communication with all four
  external faults (restart, message drop, message duplicate),
* the **raftkv variant** (the Raft-java analogue) models synchronous
  communication, so ``DropMessage``/``DuplicateMessage`` are removed
  exactly as in Section 5.2.

Both variants come in two flavours:

* ``spec_bugs=False`` (default) — the *fixed* specification: term
  updates are folded into the message handlers and the
  candidate-steps-down branch of ``HandleAppendEntriesRequest`` replies
  and consumes its message,
* ``spec_bugs=True`` — the *official* specification faithfully
  reproducing the two specification bugs the paper reports (Section
  6.1): ``UpdateTerm`` is a standalone action interleaving with the
  handlers and not consuming its message (Figure 10), and the
  return-to-follower branch does not ``Reply`` (Figure 11).

As in the official spec, in-flight messages live in a bag
(multiset), elections are bounded by a term ceiling and client
requests / faults by action counters.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..tlaplus import (
    ActionKind,
    Specification,
    VarKind,
    bag_add,
    bag_count,
    bag_remove,
    from_constant,
    in_flight,
)
from ..tlaplus.values import EMPTY_BAG, FrozenDict, freeze

__all__ = [
    "FOLLOWER",
    "CANDIDATE",
    "LEADER",
    "NIL",
    "RaftSpecOptions",
    "build_raft_spec",
    "build_xraft_spec",
    "build_raftkv_spec",
    "last_term",
    "rv_request",
    "rv_response",
    "ae_request",
    "ae_response",
]

FOLLOWER = "Follower"
CANDIDATE = "Candidate"
LEADER = "Leader"
NIL = "Nil"

RV_REQUEST = "RequestVoteRequest"
RV_RESPONSE = "RequestVoteResponse"
AE_REQUEST = "AppendEntriesRequest"
AE_RESPONSE = "AppendEntriesResponse"


def last_term(log: Sequence) -> int:
    """The term of the last log entry (0 for an empty log)."""
    return log[-1][0] if log else 0


def rv_request(src, dst, term, llt=0, lli=0):
    """A message as a plain record (likewise the three below) — what a
    scenario schedule names in ``label(..., m=...)``."""
    return {"mtype": RV_REQUEST, "mterm": term, "mlastLogTerm": llt,
            "mlastLogIndex": lli, "msource": src, "mdest": dst}


def rv_response(src, dst, term, granted):
    return {"mtype": RV_RESPONSE, "mterm": term,
            "mvoteGranted": granted, "msource": src, "mdest": dst}


def ae_request(src, dst, term, prev_index, prev_term, entries, commit):
    return {"mtype": AE_REQUEST, "mterm": term,
            "mprevLogIndex": prev_index, "mprevLogTerm": prev_term,
            "mentries": tuple(entries), "mcommitIndex": commit,
            "msource": src, "mdest": dst}


def ae_response(src, dst, term, success, match):
    return {"mtype": AE_RESPONSE, "mterm": term, "msuccess": success,
            "mmatchIndex": match, "msource": src, "mdest": dst}


class RaftSpecOptions:
    """Model constants (the values a TLC model would assign)."""

    def __init__(
        self,
        servers: Iterable[str] = ("n1", "n2", "n3"),
        max_term: int = 2,
        max_client_requests: int = 1,
        max_restarts: int = 1,
        max_drops: int = 1,
        max_duplicates: int = 1,
        enable_restart: bool = True,
        enable_drop: bool = True,
        enable_duplicate: bool = True,
        spec_bugs: bool = False,
        candidates: Optional[Iterable[str]] = None,
        max_messages: Optional[int] = None,
        name: str = "raft",
    ):
        self.servers = tuple(servers)
        # Model restrictions TLC users routinely apply to keep checking
        # tractable: limit which nodes may time out, bound the bag size.
        self.candidates = tuple(candidates) if candidates is not None else tuple(servers)
        self.max_messages = max_messages
        self.max_term = max_term
        self.max_client_requests = max_client_requests
        self.max_restarts = max_restarts
        self.max_drops = max_drops
        self.max_duplicates = max_duplicates
        self.enable_restart = enable_restart
        self.enable_drop = enable_drop
        self.enable_duplicate = enable_duplicate
        self.spec_bugs = spec_bugs
        self.name = name

    def fault_actions(self) -> tuple:
        """Names of the fault actions this model enables — the legal
        modeled-injection vocabulary: ``repro.faults.plan_faults`` can
        only splice edges labelled with these actions."""
        names = []
        if self.enable_restart:
            names.append("Restart")
        if self.enable_drop:
            names.append("DropMessage")
        if self.enable_duplicate:
            names.append("DuplicateMessage")
        return tuple(names)


def build_xraft_spec(**kwargs) -> Specification:
    """The Xraft model: asynchronous communication, all faults."""
    kwargs.setdefault("name", "raft-xraft")
    return build_raft_spec(RaftSpecOptions(**kwargs))


def build_raftkv_spec(**kwargs) -> Specification:
    """The Raft-java model: synchronous communication (no drop/duplicate)."""
    kwargs.setdefault("name", "raft-raftkv")
    kwargs.setdefault("enable_drop", False)
    kwargs.setdefault("enable_duplicate", False)
    return build_raft_spec(RaftSpecOptions(**kwargs))


def build_raft_spec(options: Optional[RaftSpecOptions] = None) -> Specification:
    """Build the Raft specification for the given model options."""
    opts = options or RaftSpecOptions()
    servers = opts.servers
    quorum = len(servers) // 2 + 1

    spec = Specification(
        opts.name,
        constants={
            "Server": servers,
            "Follower": FOLLOWER,
            "Candidate": CANDIDATE,
            "Leader": LEADER,
            "Nil": NIL,
            "MaxTerm": opts.max_term,
            "MaxClientRequests": opts.max_client_requests,
            "MaxRestarts": opts.max_restarts,
            "Quorum": quorum,
        },
    )
    # Budget constants only exist alongside the actions they bound, so a
    # synchronous model (raftkv) carries no dead drop/duplicate knobs.
    if opts.enable_drop:
        spec.constants["MaxDrops"] = opts.max_drops
    if opts.enable_duplicate:
        spec.constants["MaxDuplicates"] = opts.max_duplicates

    # -- variables (Section 4.1.1 categories) --------------------------------
    spec.add_variable("messages", kind=VarKind.MESSAGE,
                      doc="Bag of in-flight messages (raft.tla's multiset).")
    spec.add_variable("currentTerm", per_node=True, doc="Latest term seen (persistent).")
    spec.add_variable("state", per_node=True, doc="Follower / Candidate / Leader.")
    spec.add_variable("votedFor", per_node=True,
                      doc="Candidate voted for in the current term (persistent).")
    spec.add_variable("log", per_node=True, doc="Log entries (term, value) (persistent).")
    spec.add_variable("commitIndex", per_node=True, doc="Highest committed index (volatile).")
    spec.add_variable("votesGranted", per_node=True,
                      doc="Nodes that granted this candidate's vote request.")
    spec.add_variable("votesResponded", per_node=True,
                      doc="Nodes that answered this candidate's vote request.")
    spec.add_variable("nextIndex", per_node=True,
                      doc="Leader: next log index to send to each peer.")
    spec.add_variable("matchIndex", per_node=True,
                      doc="Leader: highest replicated index per peer.")
    spec.add_variable("electionCtr", kind=VarKind.COUNTER)
    spec.add_variable("requestCtr", kind=VarKind.COUNTER)
    spec.add_variable("restartCtr", kind=VarKind.COUNTER)
    if opts.enable_drop:
        spec.add_variable("dropCtr", kind=VarKind.COUNTER)
    if opts.enable_duplicate:
        spec.add_variable("dupCtr", kind=VarKind.COUNTER)

    @spec.init
    def init(const):
        fault_ctrs = {}
        if opts.enable_drop:
            fault_ctrs["dropCtr"] = 0
        if opts.enable_duplicate:
            fault_ctrs["dupCtr"] = 0
        return {
            "messages": EMPTY_BAG,
            "currentTerm": {i: 0 for i in servers},
            "state": {i: FOLLOWER for i in servers},
            "votedFor": {i: NIL for i in servers},
            "log": {i: () for i in servers},
            "commitIndex": {i: 0 for i in servers},
            "votesGranted": {i: frozenset() for i in servers},
            "votesResponded": {i: frozenset() for i in servers},
            "nextIndex": {i: {j: 1 for j in servers if j != i} for i in servers},
            "matchIndex": {i: {j: 0 for j in servers if j != i} for i in servers},
            "electionCtr": 0,
            "requestCtr": 0,
            "restartCtr": 0,
            **fault_ctrs,
        }

    # -- helpers ----------------------------------------------------------------
    def discard(bag, m):
        return bag_remove(bag, m)

    def reply(bag, m, response):
        return bag_add(bag_remove(bag, m), response)

    def fold_update_term(st, i, mterm):
        """The fixed spec folds UpdateTerm into every handler."""
        term = st.currentTerm[i]
        role = st.state[i]
        voted = st.votedFor[i]
        if not opts.spec_bugs and mterm > term:
            return mterm, FOLLOWER, NIL
        return term, role, voted

    def exchange_outstanding(bag, i, j, response_type):
        """True when node j still owes i an answer of ``response_type``.

        Senders do not re-send while the previous answer is in flight.
        This is the state constraint TLC models impose to keep raft.tla's
        message bag bounded; without it identical responses accumulate
        without bound.
        """
        return any(
            m["mtype"] == response_type and m["msource"] == j and m["mdest"] == i
            for m in bag
        )

    def bag_full(bag):
        """Optional global bag bound (a TLC state constraint)."""
        if opts.max_messages is None:
            return False
        return sum(bag.values()) >= opts.max_messages

    # -- elections ------------------------------------------------------------------
    @spec.action(params={"i": from_constant("Server")})
    def Timeout(state, const, i):
        """Election timeout: the node becomes a candidate and votes for
        itself (implementations fold the self-vote into the timeout)."""
        if i not in opts.candidates:
            return None  # model restriction: only these nodes time out
        if state.state[i] not in (FOLLOWER, CANDIDATE):
            return None
        if state.currentTerm[i] >= const["MaxTerm"]:
            return None
        term = state.currentTerm[i] + 1
        return {
            "state": state.state.set(i, CANDIDATE),
            "currentTerm": state.currentTerm.set(i, term),
            "votedFor": state.votedFor.set(i, i),
            "votesGranted": state.votesGranted.set(i, frozenset({i})),
            "votesResponded": state.votesResponded.set(i, frozenset({i})),
            "electionCtr": state.electionCtr + 1,
        }

    @spec.action(
        params={"i": from_constant("Server"), "j": from_constant("Server")},
        kind=ActionKind.MESSAGE_SEND, message_var="messages",
    )
    def RequestVote(state, const, i, j):
        """Candidate i solicits j's vote."""
        if i == j or state.state[i] != CANDIDATE:
            return None
        if j in state.votesResponded[i]:
            return None
        m = freeze({
            "mtype": RV_REQUEST,
            "mterm": state.currentTerm[i],
            "mlastLogTerm": last_term(state.log[i]),
            "mlastLogIndex": len(state.log[i]),
            "msource": i,
            "mdest": j,
        })
        if bag_count(state.messages, m) > 0:
            return None  # already in flight (bounds the state space)
        if exchange_outstanding(state.messages, i, j, RV_RESPONSE):
            return None  # j's previous answer not yet processed
        if bag_full(state.messages):
            return None  # bag bound (state constraint)
        return {"messages": bag_add(state.messages, m)}

    @spec.action(
        params={"m": in_flight("messages")},
        kind=ActionKind.MESSAGE_RECEIVE, msg_param="m", message_var="messages",
    )
    def HandleRequestVoteRequest(state, const, m):
        """Receiver decides whether to grant its vote."""
        if m["mtype"] != RV_REQUEST:
            return None
        i, j = m["mdest"], m["msource"]
        if opts.spec_bugs and m["mterm"] > state.currentTerm[i]:
            return None  # official spec: UpdateTerm must fire first
        term, role, voted = fold_update_term(state, i, m["mterm"])
        log_ok = (
            m["mlastLogTerm"] > last_term(state.log[i])
            or (m["mlastLogTerm"] == last_term(state.log[i])
                and m["mlastLogIndex"] >= len(state.log[i]))
        )
        grant = m["mterm"] == term and log_ok and voted in (NIL, j)
        if grant:
            voted = j
        response = freeze({
            "mtype": RV_RESPONSE,
            "mterm": term,
            "mvoteGranted": grant,
            "msource": i,
            "mdest": j,
        })
        return {
            "messages": reply(state.messages, m, response),
            "currentTerm": state.currentTerm.set(i, term),
            "state": state.state.set(i, role),
            "votedFor": state.votedFor.set(i, voted),
        }

    @spec.action(
        params={"m": in_flight("messages")},
        kind=ActionKind.MESSAGE_RECEIVE, msg_param="m", message_var="messages",
    )
    def HandleRequestVoteResponse(state, const, m):
        """Candidate tallies a vote response."""
        if m["mtype"] != RV_RESPONSE:
            return None
        i, j = m["mdest"], m["msource"]
        if opts.spec_bugs and m["mterm"] > state.currentTerm[i]:
            return None  # official spec: UpdateTerm must fire first
        if not opts.spec_bugs and m["mterm"] > state.currentTerm[i]:
            # fixed spec: step down and consume
            return {
                "messages": discard(state.messages, m),
                "currentTerm": state.currentTerm.set(i, m["mterm"]),
                "state": state.state.set(i, FOLLOWER),
                "votedFor": state.votedFor.set(i, NIL),
            }
        if m["mterm"] < state.currentTerm[i]:
            return {"messages": discard(state.messages, m)}  # stale response
        updates = {"messages": discard(state.messages, m)}
        updates["votesResponded"] = state.votesResponded.set(
            i, state.votesResponded[i] | {j}
        )
        if m["mvoteGranted"]:
            updates["votesGranted"] = state.votesGranted.set(
                i, state.votesGranted[i] | {j}
            )
        return updates

    @spec.action(params={"i": from_constant("Server")})
    def BecomeLeader(state, const, i):
        """Candidate with a quorum of granted votes takes leadership."""
        if state.state[i] != CANDIDATE:
            return None
        if len(state.votesGranted[i]) < const["Quorum"]:
            return None
        return {
            "state": state.state.set(i, LEADER),
            "nextIndex": state.nextIndex.set(
                i, {j: len(state.log[i]) + 1 for j in servers if j != i}
            ),
            "matchIndex": state.matchIndex.set(
                i, {j: 0 for j in servers if j != i}
            ),
        }

    # -- log replication ---------------------------------------------------------------
    @spec.action(
        params={"i": from_constant("Server"), "j": from_constant("Server")},
        kind=ActionKind.MESSAGE_SEND, message_var="messages",
    )
    def AppendEntries(state, const, i, j):
        """Leader i replicates (at most one entry) to j, or heartbeats."""
        if i == j or state.state[i] != LEADER:
            return None
        prev_index = state.nextIndex[i][j] - 1
        prev_term = state.log[i][prev_index - 1][0] if prev_index > 0 else 0
        if state.nextIndex[i][j] <= len(state.log[i]):
            entries = (state.log[i][state.nextIndex[i][j] - 1],)
        else:
            entries = ()
        m = freeze({
            "mtype": AE_REQUEST,
            "mterm": state.currentTerm[i],
            "mprevLogIndex": prev_index,
            "mprevLogTerm": prev_term,
            "mentries": entries,
            "mcommitIndex": min(state.commitIndex[i], prev_index + len(entries)),
            "msource": i,
            "mdest": j,
        })
        if bag_count(state.messages, m) > 0:
            return None
        if exchange_outstanding(state.messages, i, j, AE_RESPONSE):
            return None  # j's previous ack not yet processed
        if bag_full(state.messages):
            return None  # bag bound (state constraint)
        return {"messages": bag_add(state.messages, m)}

    @spec.action(
        params={"m": in_flight("messages")},
        kind=ActionKind.MESSAGE_RECEIVE, msg_param="m", message_var="messages",
    )
    def HandleAppendEntriesRequest(state, const, m):
        """Receiver checks log consistency and appends entries.

        The official spec (``spec_bugs=True``) keeps the three-branch
        structure of Figure 11, where the return-to-follower branch
        neither replies nor consumes the message.
        """
        if m["mtype"] != AE_REQUEST:
            return None
        i, j = m["mdest"], m["msource"]
        if opts.spec_bugs and m["mterm"] > state.currentTerm[i]:
            return None  # official spec: UpdateTerm must fire first
        term, role, voted = fold_update_term(state, i, m["mterm"])
        log = state.log[i]
        log_ok = (
            m["mprevLogIndex"] == 0
            or (m["mprevLogIndex"] <= len(log)
                and log[m["mprevLogIndex"] - 1][0] == m["mprevLogTerm"])
        )

        def reject():
            response = freeze({
                "mtype": AE_RESPONSE, "mterm": term, "msuccess": False,
                "mmatchIndex": 0, "msource": i, "mdest": j,
            })
            return {
                "messages": reply(state.messages, m, response),
                "currentTerm": state.currentTerm.set(i, term),
                "state": state.state.set(i, role),
                "votedFor": state.votedFor.set(i, voted),
            }

        if m["mterm"] < term:
            return reject()
        # m.mterm == term from here on
        if role == CANDIDATE:
            if opts.spec_bugs:
                # Figure 11 second branch: step down WITHOUT replying and
                # WITHOUT consuming m — the message is handled again later.
                return {"state": state.state.set(i, FOLLOWER)}
            role = FOLLOWER  # fixed spec: fold step-down into the handling
        if not log_ok:
            return reject()
        new_log = log[: m["mprevLogIndex"]] + m["mentries"]
        match_index = m["mprevLogIndex"] + len(m["mentries"])
        response = freeze({
            "mtype": AE_RESPONSE, "mterm": term, "msuccess": True,
            "mmatchIndex": match_index, "msource": i, "mdest": j,
        })
        return {
            "messages": reply(state.messages, m, response),
            "currentTerm": state.currentTerm.set(i, term),
            "state": state.state.set(i, role),
            "votedFor": state.votedFor.set(i, voted),
            "log": state.log.set(i, new_log),
            "commitIndex": state.commitIndex.set(
                i, min(m["mcommitIndex"], len(new_log))
            ),
        }

    @spec.action(
        params={"m": in_flight("messages")},
        kind=ActionKind.MESSAGE_RECEIVE, msg_param="m", message_var="messages",
    )
    def HandleAppendEntriesResponse(state, const, m):
        """Leader advances/backs off a peer's nextIndex."""
        if m["mtype"] != AE_RESPONSE:
            return None
        i, j = m["mdest"], m["msource"]
        if opts.spec_bugs and m["mterm"] > state.currentTerm[i]:
            return None  # official spec: UpdateTerm must fire first
        if not opts.spec_bugs and m["mterm"] > state.currentTerm[i]:
            return {
                "messages": discard(state.messages, m),
                "currentTerm": state.currentTerm.set(i, m["mterm"]),
                "state": state.state.set(i, FOLLOWER),
                "votedFor": state.votedFor.set(i, NIL),
            }
        if m["mterm"] < state.currentTerm[i] or state.state[i] != LEADER:
            return {"messages": discard(state.messages, m)}
        if m["msuccess"]:
            next_i = state.nextIndex[i].set(j, m["mmatchIndex"] + 1)
            match_i = state.matchIndex[i].set(j, m["mmatchIndex"])
        else:
            next_i = state.nextIndex[i].set(
                j, max(state.nextIndex[i][j] - 1, 1)
            )
            match_i = state.matchIndex[i]
        return {
            "messages": discard(state.messages, m),
            "nextIndex": state.nextIndex.set(i, next_i),
            "matchIndex": state.matchIndex.set(i, match_i),
        }

    @spec.action(params={"i": from_constant("Server")},
                 kind=ActionKind.USER_REQUEST)
    def ClientRequest(state, const, i):
        """A client writes a value through the leader.

        Concrete data is not modelled: the action counter's value serves
        as the datum (Section 4.1.2's user-request convention).
        """
        if state.state[i] != LEADER:
            return None
        if state.requestCtr >= const["MaxClientRequests"]:
            return None
        value = state.requestCtr + 1
        entry = (state.currentTerm[i], value)
        return {
            "log": state.log.set(i, state.log[i] + (entry,)),
            "requestCtr": state.requestCtr + 1,
        }

    @spec.action(params={"i": from_constant("Server")})
    def AdvanceCommitIndex(state, const, i):
        """Leader commits the highest quorum-replicated index of its term."""
        if state.state[i] != LEADER:
            return None
        log = state.log[i]
        best = None
        for k in range(len(log), state.commitIndex[i], -1):
            agree = 1 + sum(
                1 for j in servers
                if j != i and state.matchIndex[i][j] >= k
            )
            if agree >= const["Quorum"] and log[k - 1][0] == state.currentTerm[i]:
                best = k
                break
        if best is None:
            return None
        return {"commitIndex": state.commitIndex.set(i, best)}

    # -- the official spec bug #1: standalone UpdateTerm -----------------------------
    if opts.spec_bugs:

        @spec.action(
            params={"m": in_flight("messages")},
            kind=ActionKind.MESSAGE_RECEIVE, msg_param="m", message_var="messages",
        )
        def UpdateTerm(state, const, m):
            """Figure 10: UpdateTerm interleaves with the handlers as an
            independent action and does NOT consume its message."""
            i = m["mdest"]
            if m["mterm"] <= state.currentTerm[i]:
                return None
            return {
                "currentTerm": state.currentTerm.set(i, m["mterm"]),
                "state": state.state.set(i, FOLLOWER),
                "votedFor": state.votedFor.set(i, NIL),
            }

    # -- external faults ------------------------------------------------------------------
    if opts.enable_restart:

        @spec.action(params={"i": from_constant("Server")}, kind=ActionKind.FAULT)
        def Restart(state, const, i):
            """Node crash + relaunch: volatile state resets; currentTerm,
            votedFor and the log are persistent and survive."""
            if state.restartCtr >= const["MaxRestarts"]:
                return None
            return {
                "state": state.state.set(i, FOLLOWER),
                "votesGranted": state.votesGranted.set(i, frozenset()),
                "votesResponded": state.votesResponded.set(i, frozenset()),
                "nextIndex": state.nextIndex.set(
                    i, {j: 1 for j in servers if j != i}
                ),
                "matchIndex": state.matchIndex.set(
                    i, {j: 0 for j in servers if j != i}
                ),
                "commitIndex": state.commitIndex.set(i, 0),
                "restartCtr": state.restartCtr + 1,
            }

    if opts.enable_drop:

        @spec.action(
            params={"m": in_flight("messages")},
            kind=ActionKind.FAULT, msg_param="m", message_var="messages",
        )
        def DropMessage(state, const, m):
            """The network loses one copy of an in-flight message."""
            if state.dropCtr >= const["MaxDrops"]:
                return None
            return {
                "messages": bag_remove(state.messages, m),
                "dropCtr": state.dropCtr + 1,
            }

    if opts.enable_duplicate:

        @spec.action(
            params={"m": in_flight("messages")},
            kind=ActionKind.FAULT, msg_param="m", message_var="messages",
        )
        def DuplicateMessage(state, const, m):
            """The network duplicates an in-flight message."""
            if state.dupCtr >= const["MaxDuplicates"]:
                return None
            if bag_count(state.messages, m) != 1:
                return None  # bound the bag
            return {
                "messages": bag_add(state.messages, m),
                "dupCtr": state.dupCtr + 1,
            }

    # -- properties -----------------------------------------------------------------------
    @spec.invariant()
    def ElectionSafety(state, const):
        """At most one leader per term."""
        leaders = [i for i in servers if state.state[i] == LEADER]
        terms = [state.currentTerm[i] for i in leaders]
        return len(terms) == len(set(terms))

    @spec.invariant()
    def CommittedWithinLog(state, const):
        """commitIndex never points past the log."""
        return all(state.commitIndex[i] <= len(state.log[i]) for i in servers)

    return spec
