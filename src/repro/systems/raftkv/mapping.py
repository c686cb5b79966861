"""Spec↔implementation mapping for raftkv.

raftkv's communication is synchronous, so its model is the raftkv
variant of the Raft spec (no drop/duplicate faults, Section 5.2).  The
mapping uses ``STRICT`` message checking — every request and reply
content is modelled faithfully — which is also what exposes official
Raft spec bug #2 (Figure 11) when the *fixed* implementation is run
against the ``spec_bugs=True`` model.
"""

from __future__ import annotations

from typing import Optional

from ...core.mapping import MessageCheckMode, SpecMapping
from ...specs.raft import CANDIDATE, FOLLOWER, LEADER, NIL
from ...tlaplus import Specification
from .config import RaftKvConfig
from .node import KvRole

__all__ = ["build_raftkv_mapping"]


def build_raftkv_mapping(spec: Specification,
                         config: Optional[RaftKvConfig] = None) -> SpecMapping:
    """Build the raftkv mapping for ``spec``."""
    mapping = SpecMapping(spec, message_check=MessageCheckMode.STRICT)

    # -- constants ------------------------------------------------------------
    mapping.map_constant(FOLLOWER, KvRole.FOLLOWER)
    mapping.map_constant(CANDIDATE, KvRole.CANDIDATE)
    mapping.map_constant(LEADER, KvRole.LEADER)
    mapping.map_constant(NIL, None)

    # -- variables --------------------------------------------------------------
    for name in ("state", "currentTerm", "votedFor", "log", "commitIndex",
                 "votesGranted", "votesResponded", "nextIndex", "matchIndex"):
        mapping.map_variable(name)

    # -- actions ------------------------------------------------------------------
    mapping.map_user_request(
        "Timeout",
        lambda cluster, params, occ: cluster.node(params["i"]).trigger_timeout(),
    )
    mapping.map_user_request(
        "RequestVote",
        lambda cluster, params, occ: cluster.node(params["i"])
        .solicit_vote(params["j"]),
    )
    mapping.map_user_request(
        "AppendEntries",
        lambda cluster, params, occ: cluster.node(params["i"])
        .replicate(params["j"]),
    )
    mapping.map_user_request(
        "ClientRequest",
        lambda cluster, params, occ: cluster.node(params["i"]).client_request(occ),
    )
    mapping.map_user_request(
        "BecomeLeader",
        lambda cluster, params, occ: cluster.node(params["i"]).become_leader(),
    )
    mapping.map_user_request(
        "AdvanceCommitIndex",
        lambda cluster, params, occ: cluster.node(params["i"]).advance_commit_index(),
    )
    mapping.map_action("HandleRequestVoteRequest")
    mapping.map_action("HandleRequestVoteResponse")
    mapping.map_action("HandleAppendEntriesRequest")
    mapping.map_action("HandleAppendEntriesResponse")
    if "Restart" in spec.actions:
        mapping.map_restart("Restart", node_param="i")
    if "UpdateTerm" in spec.actions:
        # The official spec's standalone UpdateTerm (Figure 10) has no
        # implementation counterpart — raftkv folds term updates into its
        # handlers.  Mapping it as a spontaneous action is exactly what
        # surfaces the spec bug: the scheduled action never notifies.
        mapping.map_action("UpdateTerm")

    mapping.bind_default_events()
    mapping.validate()
    return mapping
