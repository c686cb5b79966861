"""The ZooKeeper ZAB specification (fast leader election + epoch handshake).

The paper develops a TLA+ specification for ZooKeeper's ZAB protocol
from the implementation and its design documents (Section 5.3), with
two message-related variables — one per communication mechanism:

* ``le_msgs`` — vote notifications of the fast-leader-election stage,
* ``bc_msgs`` — the synchronization stage's LEADERINFO / ACKEPOCH /
  NEWLEADER / ACK handshake (the epoch agreement that ZOOKEEPER-1653
  lives in).

Faults are ``Crash``/``Restart`` (message drop/duplicate are not
modelled, matching the paper: ZAB's designers never claimed to handle
them).  Votes are ``(lastZxid, sid)`` pairs compared lexicographically,
``round`` is the election's logical clock (volatile), and
``acceptedEpoch``/``currentEpoch``/``lastZxid`` are persistent.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
from ..tlaplus.values import EMPTY_BAG, freeze

__all__ = ["LOOKING", "FOLLOWING", "LEADING", "NIL", "ZabSpecOptions", "build_zab_spec"]

LOOKING = "Looking"
FOLLOWING = "Following"
LEADING = "Leading"
NIL = "Nil"

VOTE = "Vote"
LEADER_INFO = "LeaderInfo"
ACK_EPOCH = "AckEpoch"
NEW_LEADER = "NewLeader"
ACK = "Ack"
PROPOSAL = "Proposal"
PROPOSAL_ACK = "ProposalAck"
COMMIT = "Commit"


class ZabSpecOptions:
    """Model constants for the ZAB specification."""

    def __init__(
        self,
        servers: Iterable[str] = ("n1", "n2", "n3"),
        max_elections: int = 2,
        max_crashes: int = 1,
        max_restarts: int = 1,
        max_client_requests: int = 0,
        starters: Optional[Iterable[str]] = None,
        crashers: Optional[Iterable[str]] = None,
        name: str = "zab",
    ):
        self.servers = tuple(servers)
        self.max_elections = max_elections
        self.max_crashes = max_crashes
        self.max_restarts = max_restarts
        self.max_client_requests = max_client_requests
        # model restriction: which nodes may spontaneously start elections
        self.starters = tuple(starters) if starters is not None else tuple(servers)
        # model restriction: which nodes may crash/restart — restricting
        # the crash set is the standard TLC trick to keep a
        # fault-enabled ZAB space tractable (all-servers × crashes
        # explodes well past 10^5 states)
        self.crashers = tuple(crashers) if crashers is not None else tuple(servers)
        self.name = name

    def fault_actions(self) -> tuple:
        """Names of the fault actions this model enables — the legal
        modeled-injection vocabulary for ``repro.faults.plan_faults``."""
        names = []
        if self.max_crashes > 0:
            names.append("Crash")
        if self.max_restarts > 0:
            names.append("Restart")
        return tuple(names)


def _vote_notif(src, dst, rnd, vote):
    return freeze({"mtype": VOTE, "mround": rnd, "mvote": vote,
                   "msource": src, "mdest": dst})


def build_zab_spec(options: Optional[ZabSpecOptions] = None) -> Specification:
    """Build the ZAB specification for the given model options."""
    opts = options or ZabSpecOptions()
    servers = opts.servers
    quorum = len(servers) // 2 + 1

    spec = Specification(
        opts.name,
        constants={
            "Server": servers,
            "Looking": LOOKING, "Following": FOLLOWING, "Leading": LEADING,
            "Nil": NIL,
            "Quorum": quorum,
            "MaxElections": opts.max_elections,
            "MaxCrashes": opts.max_crashes,
            "MaxRestarts": opts.max_restarts,
            "MaxClientRequests": opts.max_client_requests,
        },
    )

    # -- variables ----------------------------------------------------------
    spec.add_variable("le_msgs", kind=VarKind.MESSAGE,
                      doc="Leader-election vote notifications.")
    spec.add_variable("bc_msgs", kind=VarKind.MESSAGE,
                      doc="Synchronization-stage handshake messages.")
    spec.add_variable("state", per_node=True, doc="Looking / Following / Leading.")
    spec.add_variable("online", per_node=True, doc="Process liveness (crash window).")
    spec.add_variable("round", per_node=True, doc="FLE logical clock (volatile).")
    spec.add_variable("vote", per_node=True, doc="Current vote (lastZxid, sid) or Nil.")
    spec.add_variable("voteTable", per_node=True,
                      doc="Votes received this round, per voter.")
    spec.add_variable("leader", per_node=True, doc="Elected leader id or Nil.")
    spec.add_variable("acceptedEpoch", per_node=True,
                      doc="Epoch acknowledged via LEADERINFO (persistent).")
    spec.add_variable("currentEpoch", per_node=True,
                      doc="Epoch committed via NEWLEADER (persistent).")
    spec.add_variable("lastZxid", per_node=True, doc="Last txn id (persistent).")
    spec.add_variable("ackd", per_node=True,
                      doc="Leader: followers that acked NEWLEADER.")
    spec.add_variable("history", per_node=True,
                      doc="Accepted proposals (zxid, value) (persistent).")
    spec.add_variable("committed", per_node=True,
                      doc="Highest committed zxid (volatile view).")
    spec.add_variable("proposalAcks", per_node=True,
                      doc="Leader: acks collected per proposed zxid.")
    spec.add_variable("electionCtr", kind=VarKind.COUNTER)
    spec.add_variable("crashCtr", kind=VarKind.COUNTER)
    spec.add_variable("restartCtr", kind=VarKind.COUNTER)
    spec.add_variable("requestCtr", kind=VarKind.COUNTER)

    @spec.init
    def init(const):
        return {
            "le_msgs": EMPTY_BAG,
            "bc_msgs": EMPTY_BAG,
            "state": {i: LOOKING for i in servers},
            "online": {i: True for i in servers},
            "round": {i: 0 for i in servers},
            "vote": {i: NIL for i in servers},
            "voteTable": {i: {} for i in servers},
            "leader": {i: NIL for i in servers},
            "acceptedEpoch": {i: 0 for i in servers},
            "currentEpoch": {i: 0 for i in servers},
            "lastZxid": {i: 0 for i in servers},
            "ackd": {i: frozenset() for i in servers},
            "history": {i: () for i in servers},
            "committed": {i: 0 for i in servers},
            "proposalAcks": {i: {} for i in servers},
            "electionCtr": 0,
            "crashCtr": 0,
            "restartCtr": 0,
            "requestCtr": 0,
        }

    def broadcast(bag, src, rnd, vote):
        """Send a notification to every peer, deduplicating identical
        in-flight copies (the state constraint that bounds the bag)."""
        for j in servers:
            if j != src:
                notif = _vote_notif(src, j, rnd, vote)
                if bag_count(bag, notif) == 0:
                    bag = bag_add(bag, notif)
        return bag

    def vote_gt(a, b):
        """FLE's total order on votes: (zxid, sid) lexicographic."""
        return tuple(a) > tuple(b)

    # -- fast leader election --------------------------------------------------
    @spec.action(params={"i": from_constant("Server")})
    def StartElection(state, const, i):
        """A LOOKING node starts (or restarts) a round of leader election,
        proposing itself and notifying every peer (Figure 5's snippet)."""
        if i not in opts.starters:
            return None
        if not state.online[i] or state.state[i] != LOOKING:
            return None
        if state.electionCtr >= const["MaxElections"]:
            return None
        rnd = state.round[i] + 1
        vote = (state.lastZxid[i], i)
        return {
            "round": state.round.set(i, rnd),
            "vote": state.vote.set(i, vote),
            "voteTable": state.voteTable.set(i, {i: vote}),
            "le_msgs": broadcast(state.le_msgs, i, rnd, vote),
            "electionCtr": state.electionCtr + 1,
        }

    @spec.action(params={"m": in_flight("le_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="le_msgs")
    def HandleVote(state, const, m):
        """A node processes one vote notification (FLE's receive loop)."""
        i, src = m["mdest"], m["msource"]
        if not state.online[i]:
            return None
        if state.state[i] != LOOKING:
            # non-LOOKING nodes swallow stale notifications
            return {"le_msgs": bag_remove(state.le_msgs, m)}
        msgs = bag_remove(state.le_msgs, m)
        rnd = state.round[i]
        vote = state.vote[i]
        table = dict(state.voteTable[i])
        if m["mround"] > rnd:
            # adopt the newer round; revote between ours and theirs
            own = (state.lastZxid[i], i)
            best = m["mvote"] if vote_gt(m["mvote"], own) else own
            table = {i: best, src: m["mvote"]}
            return {
                "le_msgs": broadcast(msgs, i, m["mround"], best),
                "round": state.round.set(i, m["mround"]),
                "vote": state.vote.set(i, best),
                "voteTable": state.voteTable.set(i, table),
            }
        if m["mround"] < rnd:
            # answer a laggard with our current vote (only when no such
            # notification is already in flight, to bound the bag)
            reply = _vote_notif(i, src, rnd, vote)
            if bag_count(msgs, reply) == 0:
                msgs = bag_add(msgs, reply)
            return {"le_msgs": msgs}
        # same round
        table[src] = m["mvote"]
        if vote_gt(m["mvote"], vote):
            table[i] = m["mvote"]
            return {
                "le_msgs": broadcast(msgs, i, rnd, m["mvote"]),
                "vote": state.vote.set(i, m["mvote"]),
                "voteTable": state.voteTable.set(i, table),
            }
        # the received vote is not better: record it, send nothing
        return {
            "le_msgs": msgs,
            "voteTable": state.voteTable.set(i, table),
        }

    def _quorum_for_vote(state, const, i):
        vote = state.vote[i]
        if vote == NIL:
            return False
        supporters = sum(
            1 for v in state.voteTable[i].values() if v == freeze(vote)
        )
        return supporters >= const["Quorum"]

    @spec.action(params={"i": from_constant("Server")})
    def BecomeLeading(state, const, i):
        """A quorum agrees on this node: it leads and proposes a new epoch."""
        if not state.online[i] or state.state[i] != LOOKING:
            return None
        if not _quorum_for_vote(state, const, i):
            return None
        if state.vote[i][1] != i:
            return None
        return {
            "state": state.state.set(i, LEADING),
            "leader": state.leader.set(i, i),
            "acceptedEpoch": state.acceptedEpoch.set(i, state.acceptedEpoch[i] + 1),
            "ackd": state.ackd.set(i, frozenset({i})),
        }

    @spec.action(params={"i": from_constant("Server")})
    def BecomeFollowing(state, const, i):
        """A quorum agrees on another node: this node follows it."""
        if not state.online[i] or state.state[i] != LOOKING:
            return None
        if not _quorum_for_vote(state, const, i):
            return None
        if state.vote[i][1] == i:
            return None
        return {
            "state": state.state.set(i, FOLLOWING),
            "leader": state.leader.set(i, state.vote[i][1]),
        }

    # -- synchronization stage (the epoch handshake) -------------------------------
    @spec.action(params={"i": from_constant("Server"), "j": from_constant("Server")},
                 kind=ActionKind.MESSAGE_SEND, message_var="bc_msgs")
    def SendLeaderInfo(state, const, i, j):
        """The leader proposes its new epoch to a connected follower."""
        if i == j or not state.online[i] or state.state[i] != LEADING:
            return None
        if state.leader[j] != i or state.state[j] != FOLLOWING:
            return None
        # one handshake message at a time per (leader, follower) session —
        # ZAB runs the synchronization over a single ordered connection,
        # and this is also the state constraint that bounds the bag.
        if any({m2["msource"], m2["mdest"]} == {i, j} for m2 in state.bc_msgs):
            return None
        m = freeze({"mtype": LEADER_INFO, "mepoch": state.acceptedEpoch[i],
                    "msource": i, "mdest": j})
        return {"bc_msgs": bag_add(state.bc_msgs, m)}

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleLeaderInfo(state, const, m):
        """Follower accepts the proposed epoch (persists acceptedEpoch)."""
        if m["mtype"] != LEADER_INFO:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != FOLLOWING:
            return None
        if m["mepoch"] < state.acceptedEpoch[i]:
            return None
        reply = freeze({"mtype": ACK_EPOCH, "mepoch": m["mepoch"],
                        "msource": i, "mdest": m["msource"]})
        return {
            "bc_msgs": bag_add(bag_remove(state.bc_msgs, m), reply),
            "acceptedEpoch": state.acceptedEpoch.set(i, m["mepoch"]),
        }

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleAckEpoch(state, const, m):
        """Leader tells the acking follower to adopt the new leadership."""
        if m["mtype"] != ACK_EPOCH:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != LEADING:
            return None
        if m["mepoch"] != state.acceptedEpoch[i]:
            return None
        reply = freeze({"mtype": NEW_LEADER, "mepoch": m["mepoch"],
                        "msource": i, "mdest": m["msource"]})
        return {"bc_msgs": bag_add(bag_remove(state.bc_msgs, m), reply)}

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleNewLeader(state, const, m):
        """Follower commits the epoch (persists currentEpoch) and acks."""
        if m["mtype"] != NEW_LEADER:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != FOLLOWING:
            return None
        reply = freeze({"mtype": ACK, "mepoch": m["mepoch"],
                        "msource": i, "mdest": m["msource"]})
        return {
            "bc_msgs": bag_add(bag_remove(state.bc_msgs, m), reply),
            "currentEpoch": state.currentEpoch.set(i, m["mepoch"]),
        }

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleAck(state, const, m):
        """Leader tallies acks; a quorum commits its own currentEpoch."""
        if m["mtype"] != ACK:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != LEADING:
            return None
        ackd = state.ackd[i] | {m["msource"]}
        updates = {
            "bc_msgs": bag_remove(state.bc_msgs, m),
            "ackd": state.ackd.set(i, ackd),
        }
        if len(ackd) >= const["Quorum"]:
            updates["currentEpoch"] = state.currentEpoch.set(
                i, state.acceptedEpoch[i]
            )
        return updates

    # -- broadcast stage ------------------------------------------------------------
    def session_busy(bag, i, j):
        return any({m2["msource"], m2["mdest"]} == {i, j} for m2 in bag)

    @spec.action(params={"i": from_constant("Server")},
                 kind=ActionKind.USER_REQUEST)
    def ClientRequest(state, const, i):
        """A client writes through the established leader.

        Concrete data is not modelled; the action counter's value is the
        datum (the same convention as the Raft spec)."""
        if not state.online[i] or state.state[i] != LEADING:
            return None
        if state.currentEpoch[i] != state.acceptedEpoch[i]:
            return None  # synchronization not finished
        if state.requestCtr >= const["MaxClientRequests"]:
            return None
        zxid = state.lastZxid[i] + 1
        value = state.requestCtr + 1
        acks = dict(state.proposalAcks[i])
        acks[zxid] = frozenset({i})
        return {
            "history": state.history.set(i, state.history[i] + ((zxid, value),)),
            "lastZxid": state.lastZxid.set(i, zxid),
            "proposalAcks": state.proposalAcks.set(i, acks),
            "requestCtr": state.requestCtr + 1,
        }

    @spec.action(params={"i": from_constant("Server"), "j": from_constant("Server")},
                 kind=ActionKind.MESSAGE_SEND, message_var="bc_msgs")
    def SendProposal(state, const, i, j):
        """The leader replicates its next uncommitted proposal to j."""
        if i == j or not state.online[i] or state.state[i] != LEADING:
            return None
        if state.leader[j] != i or state.currentEpoch[j] != state.acceptedEpoch[i]:
            return None  # follower not synchronized yet
        pending = [entry for entry in state.history[i]
                   if entry[0] > state.lastZxid[j]]
        if not pending:
            return None
        if session_busy(state.bc_msgs, i, j):
            return None
        zxid, value = pending[0]
        m = freeze({"mtype": PROPOSAL, "mzxid": zxid, "mvalue": value,
                    "msource": i, "mdest": j})
        return {"bc_msgs": bag_add(state.bc_msgs, m)}

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleProposal(state, const, m):
        """Follower logs the proposal (persistent) and acks it."""
        if m["mtype"] != PROPOSAL:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != FOLLOWING:
            return None
        if m["mzxid"] != state.lastZxid[i] + 1:
            return None  # strict zxid order over the FIFO session
        reply = freeze({"mtype": PROPOSAL_ACK, "mzxid": m["mzxid"],
                        "msource": i, "mdest": m["msource"]})
        return {
            "bc_msgs": bag_add(bag_remove(state.bc_msgs, m), reply),
            "history": state.history.set(
                i, state.history[i] + ((m["mzxid"], m["mvalue"]),)),
            "lastZxid": state.lastZxid.set(i, m["mzxid"]),
        }

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleProposalAck(state, const, m):
        """Leader tallies acks; a quorum commits the proposal locally."""
        if m["mtype"] != PROPOSAL_ACK:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != LEADING:
            return None
        acks = dict(state.proposalAcks[i])
        acked = acks.get(m["mzxid"], frozenset()) | {m["msource"]}
        acks[m["mzxid"]] = acked
        updates = {
            "bc_msgs": bag_remove(state.bc_msgs, m),
            "proposalAcks": state.proposalAcks.set(i, acks),
        }
        if len(acked) >= const["Quorum"] and m["mzxid"] == state.committed[i] + 1:
            updates["committed"] = state.committed.set(i, m["mzxid"])
        return updates

    @spec.action(params={"i": from_constant("Server"), "j": from_constant("Server")},
                 kind=ActionKind.MESSAGE_SEND, message_var="bc_msgs")
    def SendCommit(state, const, i, j):
        """The leader announces a commit to a synchronized follower."""
        if i == j or not state.online[i] or state.state[i] != LEADING:
            return None
        if state.leader[j] != i or state.committed[i] <= state.committed[j]:
            return None
        if state.committed[i] > state.lastZxid[j]:
            return None  # the follower has not logged that far yet
        if session_busy(state.bc_msgs, i, j):
            return None
        m = freeze({"mtype": COMMIT, "mzxid": state.committed[i],
                    "msource": i, "mdest": j})
        return {"bc_msgs": bag_add(state.bc_msgs, m)}

    @spec.action(params={"m": in_flight("bc_msgs")},
                 kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                 message_var="bc_msgs")
    def HandleCommit(state, const, m):
        """Follower advances its committed zxid."""
        if m["mtype"] != COMMIT:
            return None
        i = m["mdest"]
        if not state.online[i] or state.state[i] != FOLLOWING:
            return None
        return {
            "bc_msgs": bag_remove(state.bc_msgs, m),
            "committed": state.committed.set(
                i, max(state.committed[i], min(m["mzxid"], state.lastZxid[i]))),
        }

    # -- external faults ----------------------------------------------------------
    # MCK106 (dormant fault action) is silenced on both: the model the
    # CLI tests minizk against sets MaxCrashes = MaxRestarts = 0 on
    # purpose (all-servers x crashes explodes past 10^5 states).  Not
    # declaring the actions at budget 0 would leave crashCtr, restartCtr
    # and online as dead state variables (MCK001/MCK302), and dropping
    # those changes the state vector, hence every pinned zab DOT dump.
    @spec.action(  # mocket: ignore[MCK106]
        params={"i": from_constant("Server")}, kind=ActionKind.FAULT)
    def Crash(state, const, i):
        """The process dies; its durable state is untouched."""
        if i not in opts.crashers:
            return None
        if not state.online[i] or state.crashCtr >= const["MaxCrashes"]:
            return None
        return {
            "online": state.online.set(i, False),
            "crashCtr": state.crashCtr + 1,
        }

    @spec.action(  # mocket: ignore[MCK106]
        params={"i": from_constant("Server")}, kind=ActionKind.FAULT)
    def Restart(state, const, i):
        """The process relaunches: volatile election state resets, the
        persistent epochs and zxid survive."""
        if i not in opts.crashers:
            return None
        if state.online[i] or state.restartCtr >= const["MaxRestarts"]:
            return None
        return {
            "online": state.online.set(i, True),
            "state": state.state.set(i, LOOKING),
            "round": state.round.set(i, 0),
            "vote": state.vote.set(i, NIL),
            "voteTable": state.voteTable.set(i, {}),
            "leader": state.leader.set(i, NIL),
            "ackd": state.ackd.set(i, frozenset()),
            "committed": state.committed.set(i, 0),
            "proposalAcks": state.proposalAcks.set(i, {}),
            "restartCtr": state.restartCtr + 1,
        }

    # -- properties -------------------------------------------------------------------
    @spec.invariant()
    def SingleLeaderPerEpoch(state, const):
        """Two LEADING nodes never share an accepted epoch."""
        epochs = [state.acceptedEpoch[i] for i in servers
                  if state.state[i] == LEADING and state.online[i]]
        return len(epochs) == len(set(epochs))

    @spec.invariant()
    def EpochsMonotone(state, const):
        """currentEpoch never runs ahead of acceptedEpoch."""
        return all(state.currentEpoch[i] <= state.acceptedEpoch[i] for i in servers)

    @spec.invariant()
    def CommittedWithinHistory(state, const):
        """A node never commits past what it has logged."""
        return all(state.committed[i] <= state.lastZxid[i] for i in servers)

    return spec
