"""The minizk node: fast leader election + ZAB synchronization.

Communication is asynchronous (ZooKeeper style): every incoming message
is dispatched on a worker thread.  ``acceptedEpoch``, ``currentEpoch``
and ``lastZxid`` are durable; the election state (round, vote, vote
table) is volatile and resets on restart — exactly the split that makes
ZOOKEEPER-1653 possible.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional, Tuple

from ...core.mapping import action_span, get_msg, mocket_receive, traced_field
from ...runtime.cluster import Cluster
from ...runtime.node import Node
from .config import MiniZkConfig

__all__ = ["ZkState", "MiniZkNode", "make_minizk_cluster"]

VOTE = "Vote"
LEADER_INFO = "LeaderInfo"
ACK_EPOCH = "AckEpoch"
NEW_LEADER = "NewLeader"
ACK = "Ack"
PROPOSAL = "Proposal"
PROPOSAL_ACK = "ProposalAck"
COMMIT = "Commit"


class ZkState(enum.Enum):
    LOOKING = "LOOKING"
    FOLLOWING = "FOLLOWING"
    LEADING = "LEADING"


class MiniZkNode(Node):
    """One minizk server."""

    state = traced_field("state")
    round = traced_field("round")
    vote = traced_field("vote")
    vote_table = traced_field("voteTable")
    leader = traced_field("leader")
    accepted_epoch = traced_field("acceptedEpoch")
    current_epoch = traced_field("currentEpoch")
    last_zxid = traced_field("lastZxid")
    ackd = traced_field("ackd")
    history = traced_field("history")
    committed = traced_field("committed")
    proposal_acks = traced_field("proposalAcks")

    def __init__(self, node_id: str, cluster: Cluster,
                 config: Optional[MiniZkConfig] = None):
        super().__init__(node_id, cluster)
        self.config = config or MiniZkConfig()
        # durable state
        self.accepted_epoch = self.storage.get("acceptedEpoch", 0)
        self.current_epoch = self.storage.get("currentEpoch", 0)
        self.last_zxid = self.storage.get("lastZxid", 0)
        self.history = tuple(tuple(e) for e in self.storage.get("history", ()))
        # volatile election state
        self.state = ZkState.LOOKING
        self.round = 0
        self.vote = None
        self.vote_table = {}
        self.leader = None
        self.ackd = frozenset()
        self.committed = 0
        self.proposal_acks = {}
        self._peer_zxid: Dict[str, int] = {}
        self.data: Dict[Any, Any] = {}
        self._applied = 0
        self.failed = False
        if (self.config.bug_epoch_mismatch_abort
                and self.accepted_epoch != self.current_epoch):
            # ZOOKEEPER-1653: loading the database trips over the epoch
            # files written on either side of the crash and aborts.
            self.failed = True

    # -- lifecycle --------------------------------------------------------------
    def on_start(self) -> None:
        if self.failed:
            return  # the process exited during startup
        self.network.register(self.node_id)
        self.spawn(lambda: self.serve_inbox(self._on_mail),
                   name=f"{self.node_id}-inbox")

    def _on_mail(self, envelope) -> None:
        self.spawn_handler(self._dispatch, envelope.payload)

    def _dispatch(self, payload: Dict[str, Any]) -> None:
        handlers = {
            VOTE: self.handle_vote,
            LEADER_INFO: self.handle_leader_info,
            ACK_EPOCH: self.handle_ack_epoch,
            NEW_LEADER: self.handle_new_leader,
            ACK: self.handle_ack,
            PROPOSAL: self.handle_proposal,
            PROPOSAL_ACK: self.handle_proposal_ack,
            COMMIT: self.handle_commit,
        }
        handler = handlers.get(payload.get("type"))
        if handler is not None:
            handler(payload)

    # -- persistence -----------------------------------------------------------------
    def _persist_epochs(self) -> None:
        self.storage.set("acceptedEpoch", self.accepted_epoch)
        self.storage.set("currentEpoch", self.current_epoch)

    # -- fast leader election ------------------------------------------------------------
    def _my_vote(self) -> Tuple[int, str]:
        return (self.last_zxid, self.node_id)

    def _send_vote(self, peer: str, rnd: int, vote: Tuple[int, str]) -> None:
        get_msg(self, "le_msgs", mtype=VOTE, mround=rnd, mvote=tuple(vote),
                msource=self.node_id, mdest=peer)
        self.network.send(self.node_id, peer, {
            "type": VOTE, "round": rnd, "vote": list(vote),
            "src": self.node_id, "dst": peer,
        })

    def trigger_start_election(self) -> None:
        """Start a round of leader election (Figure 5's lookForLeader)."""
        if self.failed or not self.started:
            return  # a dead process never reaches lookForLeader
        with action_span(self, "StartElection", {"i": self.node_id}):
            with self.lock:
                self.round = self.round + 1
                self.vote = self._my_vote()
                self.vote_table = {self.node_id: self.vote}
                rnd, vote = self.round, self.vote
            for peer in self.peers:
                self._send_vote(peer, rnd, vote)

    @mocket_receive("HandleVote", "le_msgs",
                    msg=lambda self, payload: {
                        "mtype": VOTE, "mround": payload["round"],
                        "mvote": tuple(payload["vote"]),
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_vote(self, payload: Dict[str, Any]) -> None:
        """Process one vote notification (Figure 5's HandleVote snippet)."""
        received = tuple(payload["vote"])
        src = payload["src"]
        with self.lock:
            if self.state is not ZkState.LOOKING:
                return  # swallow stale notifications
            if payload["round"] > self.round:
                own = self._my_vote()
                best = received if received > own else own
                self.round = payload["round"]
                self.vote = best
                self.vote_table = {self.node_id: best, src: received}
                rnd, vote = self.round, self.vote
                rebroadcast, reply_to = True, None
            elif payload["round"] < self.round:
                rnd, vote = self.round, self.vote
                rebroadcast, reply_to = False, src
            else:
                self.vote_table = {**self.vote_table, src: received}
                if received > self.vote:
                    self.vote = received
                    self.vote_table = {**self.vote_table, self.node_id: received}
                    rnd, vote = self.round, self.vote
                    rebroadcast, reply_to = True, None
                elif self.config.bug_rebroadcast_on_worse_vote:
                    # ZOOKEEPER-1419: a worse vote also triggers a full
                    # re-broadcast of the unchanged own vote, producing a
                    # notification storm that keeps elections unsettled.
                    rnd, vote = self.round, self.vote
                    rebroadcast, reply_to = True, None
                else:
                    rnd, vote = self.round, self.vote
                    rebroadcast, reply_to = False, None
            quorum_met = self._quorum_met()
        if rebroadcast:
            for peer in self.peers:
                self._send_vote(peer, rnd, vote)
        elif reply_to is not None:
            self._send_vote(reply_to, rnd, vote)
        if quorum_met and not self.mocket_controlled:
            if vote[1] == self.node_id:
                self.spawn(self.become_leading, name=f"{self.node_id}-lead")
            else:
                self.spawn(self.become_following, name=f"{self.node_id}-follow")

    def _quorum_met(self) -> bool:
        if self.vote is None:
            return False
        supporters = sum(1 for v in self.vote_table.values() if tuple(v) == self.vote)
        return supporters >= self.cluster.quorum_size

    def become_leading(self) -> None:
        """A quorum elected this node: lead and propose the next epoch."""
        with action_span(self, "BecomeLeading", {"i": self.node_id}):
            with self.lock:
                if self.state is not ZkState.LOOKING or not self._quorum_met():
                    return
                if self.vote[1] != self.node_id:
                    return
                self.state = ZkState.LEADING
                self.leader = self.node_id
                self.accepted_epoch = self.accepted_epoch + 1
                self.storage.set("acceptedEpoch", self.accepted_epoch)
                self.ackd = frozenset({self.node_id})

    def become_following(self) -> None:
        """A quorum elected someone else: follow them."""
        with action_span(self, "BecomeFollowing", {"i": self.node_id}):
            with self.lock:
                if self.state is not ZkState.LOOKING or not self._quorum_met():
                    return
                if self.vote[1] == self.node_id:
                    return
                self.state = ZkState.FOLLOWING
                self.leader = self.vote[1]

    # -- synchronization stage ----------------------------------------------------------
    def send_leader_info(self, peer: str) -> None:
        """Leader proposes its new epoch to a connected follower."""
        with action_span(self, "SendLeaderInfo", {"i": self.node_id, "j": peer}):
            with self.lock:
                epoch = self.accepted_epoch
            get_msg(self, "bc_msgs", mtype=LEADER_INFO, mepoch=epoch,
                    msource=self.node_id, mdest=peer)
            self.network.send(self.node_id, peer, {
                "type": LEADER_INFO, "epoch": epoch,
                "src": self.node_id, "dst": peer,
            })

    @mocket_receive("HandleLeaderInfo", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": LEADER_INFO, "mepoch": payload["epoch"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_leader_info(self, payload: Dict[str, Any]) -> None:
        """Follower accepts the epoch — acceptedEpoch hits the disk here."""
        with self.lock:
            if self.state is not ZkState.FOLLOWING:
                return
            if payload["epoch"] < self.accepted_epoch:
                return
            self.accepted_epoch = payload["epoch"]
            self.storage.set("acceptedEpoch", self.accepted_epoch)
        get_msg(self, "bc_msgs", mtype=ACK_EPOCH, mepoch=payload["epoch"],
                msource=self.node_id, mdest=payload["src"])
        self.network.send(self.node_id, payload["src"], {
            "type": ACK_EPOCH, "epoch": payload["epoch"],
            "src": self.node_id, "dst": payload["src"],
        })

    @mocket_receive("HandleAckEpoch", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": ACK_EPOCH, "mepoch": payload["epoch"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_ack_epoch(self, payload: Dict[str, Any]) -> None:
        """Leader confirms the acking follower with NEWLEADER."""
        with self.lock:
            if self.state is not ZkState.LEADING:
                return
            if payload["epoch"] != self.accepted_epoch:
                return
        get_msg(self, "bc_msgs", mtype=NEW_LEADER, mepoch=payload["epoch"],
                msource=self.node_id, mdest=payload["src"])
        self.network.send(self.node_id, payload["src"], {
            "type": NEW_LEADER, "epoch": payload["epoch"],
            "src": self.node_id, "dst": payload["src"],
        })

    @mocket_receive("HandleNewLeader", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": NEW_LEADER, "mepoch": payload["epoch"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_new_leader(self, payload: Dict[str, Any]) -> None:
        """Follower commits the epoch — currentEpoch hits the disk here."""
        with self.lock:
            if self.state is not ZkState.FOLLOWING:
                return
            self.current_epoch = payload["epoch"]
            self.storage.set("currentEpoch", self.current_epoch)
        get_msg(self, "bc_msgs", mtype=ACK, mepoch=payload["epoch"],
                msource=self.node_id, mdest=payload["src"])
        self.network.send(self.node_id, payload["src"], {
            "type": ACK, "epoch": payload["epoch"],
            "src": self.node_id, "dst": payload["src"],
        })

    @mocket_receive("HandleAck", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": ACK, "mepoch": payload["epoch"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_ack(self, payload: Dict[str, Any]) -> None:
        """Leader tallies NEWLEADER acks; a quorum commits its epoch."""
        with self.lock:
            if self.state is not ZkState.LEADING:
                return
            self.ackd = self.ackd | {payload["src"]}
            if len(self.ackd) >= self.cluster.quorum_size:
                self.current_epoch = self.accepted_epoch
                self.storage.set("currentEpoch", self.current_epoch)



    # -- broadcast stage ---------------------------------------------------------
    def client_request(self, value: Any) -> bool:
        """A client writes through the leader (Section 4.1.2's script)."""
        with action_span(self, "ClientRequest", {"i": self.node_id}):
            with self.lock:
                if self.state is not ZkState.LEADING:
                    return False
                if self.current_epoch != self.accepted_epoch:
                    return False  # synchronization not finished
                zxid = self.last_zxid + 1
                self.last_zxid = zxid
                self.history = self.history + ((zxid, value),)
                self.proposal_acks = {**self.proposal_acks,
                                      zxid: frozenset({self.node_id})}
                self.storage.set("lastZxid", self.last_zxid)
                self.storage.set("history", tuple(self.history))
                return True

    def send_proposal(self, peer: str) -> None:
        """Leader replicates the next proposal the peer has not logged."""
        with action_span(self, "SendProposal", {"i": self.node_id, "j": peer}):
            with self.lock:
                known = self._peer_zxid.get(peer, 0)
                pending = [e for e in self.history if e[0] > known]
                if not pending:
                    return
                zxid, value = pending[0]
            get_msg(self, "bc_msgs", mtype=PROPOSAL, mzxid=zxid, mvalue=value,
                    msource=self.node_id, mdest=peer)
            self.network.send(self.node_id, peer, {
                "type": PROPOSAL, "zxid": zxid, "value": value,
                "src": self.node_id, "dst": peer,
            })

    @mocket_receive("HandleProposal", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": PROPOSAL, "mzxid": payload["zxid"],
                        "mvalue": payload["value"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_proposal(self, payload: Dict[str, Any]) -> None:
        """Follower logs the proposal (durably) and acks it."""
        with self.lock:
            if self.state is not ZkState.FOLLOWING:
                return
            if payload["zxid"] != self.last_zxid + 1:
                return  # out of order over the FIFO session
            self.last_zxid = payload["zxid"]
            self.history = self.history + ((payload["zxid"], payload["value"]),)
            self.storage.set("lastZxid", self.last_zxid)
            self.storage.set("history", tuple(self.history))
        get_msg(self, "bc_msgs", mtype=PROPOSAL_ACK, mzxid=payload["zxid"],
                msource=self.node_id, mdest=payload["src"])
        self.network.send(self.node_id, payload["src"], {
            "type": PROPOSAL_ACK, "zxid": payload["zxid"],
            "src": self.node_id, "dst": payload["src"],
        })

    @mocket_receive("HandleProposalAck", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": PROPOSAL_ACK, "mzxid": payload["zxid"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_proposal_ack(self, payload: Dict[str, Any]) -> None:
        """Leader tallies the ack; a quorum commits the proposal."""
        with self.lock:
            if self.state is not ZkState.LEADING:
                return
            zxid, src = payload["zxid"], payload["src"]
            self._peer_zxid[src] = max(self._peer_zxid.get(src, 0), zxid)
            acked = self.proposal_acks.get(zxid, frozenset()) | {src}
            self.proposal_acks = {**self.proposal_acks, zxid: acked}
            if (len(acked) >= self.cluster.quorum_size
                    and zxid == self.committed + 1):
                self.committed = zxid
                self._apply_committed()

    def send_commit(self, peer: str) -> None:
        """Leader announces its commit point to a follower."""
        with action_span(self, "SendCommit", {"i": self.node_id, "j": peer}):
            with self.lock:
                zxid = self.committed
            get_msg(self, "bc_msgs", mtype=COMMIT, mzxid=zxid,
                    msource=self.node_id, mdest=peer)
            self.network.send(self.node_id, peer, {
                "type": COMMIT, "zxid": zxid,
                "src": self.node_id, "dst": peer,
            })

    @mocket_receive("HandleCommit", "bc_msgs",
                    msg=lambda self, payload: {
                        "mtype": COMMIT, "mzxid": payload["zxid"],
                        "msource": payload["src"], "mdest": payload["dst"],
                    })
    def handle_commit(self, payload: Dict[str, Any]) -> None:
        """Follower advances its commit point and applies."""
        with self.lock:
            if self.state is not ZkState.FOLLOWING:
                return
            self.committed = max(self.committed,
                                 min(payload["zxid"], self.last_zxid))
            self._apply_committed()

    def _apply_committed(self) -> None:
        """Apply newly committed proposals to the data tree."""
        while self._applied < self.committed:
            self._applied += 1
            for zxid, value in self.history:
                if zxid == self._applied:
                    self.data[zxid] = value
                    break

    def read(self, zxid: int) -> Any:
        """Read a committed value from the data tree."""
        return self.data.get(zxid)


def make_minizk_cluster(node_ids=("n1", "n2", "n3"),
                        config: Optional[MiniZkConfig] = None) -> Cluster:
    """A fresh (undeployed) minizk cluster."""
    cfg = config or MiniZkConfig()
    return Cluster(list(node_ids),
                   lambda node_id, cluster: MiniZkNode(node_id, cluster, cfg))
