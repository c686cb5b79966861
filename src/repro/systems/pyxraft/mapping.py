"""Spec↔implementation mapping for pyxraft (the paper's Table 1 effort).

Notable mapping choices, mirroring Section 4.1:

* ``votesGranted`` — when the duplicate-vote bug is present the
  implementation realizes the spec's *set* as an *int*, so the mapping
  compares cardinality (the paper's Xraft does exactly this),
* timer-driven actions (``Timeout``) and send actions
  (``RequestVote``/``AppendEntries``) are driven by the testbed —
  timers are disabled under controlled testing, so the testbed plays
  the role of the expired timer,
* message checking uses ``CONSUME`` mode: pyxraft's spec abstracts
  response contents, so bags are validated on consumption (this is what
  turns the deep bug #3 into an *unexpected action* report).
"""

from __future__ import annotations

from typing import Optional

from ...core.mapping import MessageCheckMode, SpecMapping
from ...specs.raft import CANDIDATE, FOLLOWER, LEADER, NIL
from ...tlaplus import Specification, thaw
from .config import XraftConfig
from .messages import payload_from_spec_msg
from .node import Role

__all__ = ["build_xraft_mapping"]


def _reinject_duplicate(cluster, msg) -> None:
    """The duplicate-message fault script: re-send the message so the
    extra copy flows through the normal delivery path."""
    plain = thaw(msg)
    payload = payload_from_spec_msg(plain)
    cluster.network.send(plain["msource"], plain["mdest"], payload)


def build_xraft_mapping(spec: Specification,
                        config: Optional[XraftConfig] = None) -> SpecMapping:
    """Build the pyxraft mapping for ``spec``."""
    cfg = config or XraftConfig()
    mapping = SpecMapping(spec, message_check=MessageCheckMode.CONSUME)

    # -- constants (Section 4.1.3) ------------------------------------------
    mapping.map_constant(FOLLOWER, Role.FOLLOWER)
    mapping.map_constant(CANDIDATE, Role.CANDIDATE)
    mapping.map_constant(LEADER, Role.LEADER)
    mapping.map_constant(NIL, None)

    # -- variables (Section 4.1.1) ----------------------------------------------
    mapping.map_variable("state")
    mapping.map_variable("currentTerm")
    mapping.map_variable("votedFor")
    mapping.map_variable("log")
    mapping.map_variable("commitIndex")
    mapping.map_variable("votesResponded")
    mapping.map_variable("nextIndex")
    mapping.map_variable("matchIndex")
    if cfg.bug_duplicate_vote_count:
        # the implementation realizes the set as a counter
        mapping.map_variable(
            "votesGranted",
            compare=lambda spec_value, impl_value: len(spec_value) == impl_value,
        )
    else:
        mapping.map_variable("votesGranted")

    # -- actions (Section 4.1.2) ---------------------------------------------------
    mapping.map_user_request(
        "Timeout",
        lambda cluster, params, occ: cluster.node(params["i"]).trigger_timeout(),
    )
    mapping.map_user_request(
        "RequestVote",
        lambda cluster, params, occ: cluster.node(params["i"])
        .send_request_vote(params["j"]),
    )
    mapping.map_user_request(
        "AppendEntries",
        lambda cluster, params, occ: cluster.node(params["i"])
        .send_append_entries(params["j"]),
    )
    mapping.map_user_request(
        "ClientRequest",
        # concrete data is not modelled; the occurrence number is the datum
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
    if "DropMessage" in spec.actions:
        mapping.map_drop("DropMessage")
    if "DuplicateMessage" in spec.actions:
        mapping.map_duplicate("DuplicateMessage", _reinject_duplicate)

    mapping.bind_default_events()
    return mapping
