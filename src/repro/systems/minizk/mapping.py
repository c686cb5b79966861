"""Spec↔implementation mapping for minizk (the ZooKeeper target).

Mirrors Section 5.3's mapping effort: two message-related variables
(``le_msgs``/``bc_msgs``) live in the testbed's message sets; the
election snippets (``StartElection``/``HandleVote``) map via
``Action.begin``/``Action.end`` style spans; ``online`` is derived from
the cluster's process table (a dead process cannot report its own
death).
"""

from __future__ import annotations

from typing import Optional

from ...core.mapping import MessageCheckMode, SpecMapping
from ...specs.zab import FOLLOWING, LEADING, LOOKING, NIL
from ...tlaplus import Specification
from .config import MiniZkConfig
from .node import ZkState

__all__ = ["build_minizk_mapping"]


def build_minizk_mapping(spec: Specification,
                         config: Optional[MiniZkConfig] = None) -> SpecMapping:
    """Build the minizk mapping for ``spec``."""
    mapping = SpecMapping(spec, message_check=MessageCheckMode.CONSUME)

    # -- constants ------------------------------------------------------------
    mapping.map_constant(LOOKING, ZkState.LOOKING)
    mapping.map_constant(FOLLOWING, ZkState.FOLLOWING)
    mapping.map_constant(LEADING, ZkState.LEADING)
    mapping.map_constant(NIL, None)

    # -- variables --------------------------------------------------------------
    for name in ("state", "round", "vote", "voteTable", "leader",
                 "acceptedEpoch", "currentEpoch", "lastZxid", "ackd",
                 "history", "committed", "proposalAcks"):
        mapping.map_variable(name)
    mapping.map_variable(
        "online", derive=lambda cluster, node_id: cluster.is_up(node_id)
    )

    # -- actions ------------------------------------------------------------------
    mapping.map_user_request(
        "StartElection",
        lambda cluster, params, occ: cluster.node(params["i"])
        .trigger_start_election(),
    )
    mapping.map_user_request(
        "BecomeLeading",
        lambda cluster, params, occ: cluster.node(params["i"]).become_leading(),
    )
    mapping.map_user_request(
        "BecomeFollowing",
        lambda cluster, params, occ: cluster.node(params["i"]).become_following(),
    )
    mapping.map_user_request(
        "SendLeaderInfo",
        lambda cluster, params, occ: cluster.node(params["i"])
        .send_leader_info(params["j"]),
    )
    mapping.map_user_request(
        "ClientRequest",
        # concrete data is not modelled; the occurrence number is the datum
        lambda cluster, params, occ: cluster.node(params["i"]).client_request(occ),
    )
    mapping.map_user_request(
        "SendProposal",
        lambda cluster, params, occ: cluster.node(params["i"])
        .send_proposal(params["j"]),
    )
    mapping.map_user_request(
        "SendCommit",
        lambda cluster, params, occ: cluster.node(params["i"])
        .send_commit(params["j"]),
    )
    mapping.map_action("HandleVote")
    mapping.map_action("HandleLeaderInfo")
    mapping.map_action("HandleAckEpoch")
    mapping.map_action("HandleNewLeader")
    mapping.map_action("HandleAck")
    mapping.map_action("HandleProposal")
    mapping.map_action("HandleProposalAck")
    mapping.map_action("HandleCommit")
    mapping.map_crash("Crash", node_param="i")
    mapping.map_restart("Restart", node_param="i")

    mapping.bind_default_events()
    mapping.validate()
    return mapping
