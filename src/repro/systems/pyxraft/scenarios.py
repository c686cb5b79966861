"""Bug-revealing schedules for the three Xraft bugs (Table 2, Figures 8/9).

Each scenario is a schedule of spec actions *verified against the
specification* by :func:`repro.core.testgen.scenario_case` — the
expected states are computed by the spec, never hand-written.  Running
the resulting test case against a pyxraft cluster with the matching bug
flag reproduces the paper's divergence; running it against the correct
implementation passes.
"""

from __future__ import annotations

from ...core.testgen import Scenario, label, scenario_case
from ...specs.raft import (
    RaftSpecOptions, ae_request, ae_response, build_raft_spec, rv_request,
    rv_response,
)
from .config import XraftConfig

__all__ = ["xraft_bug1", "xraft_bug2", "xraft_bug3"]


def xraft_bug1() -> Scenario:
    """Xraft bug #1 [23]: duplicated vote response makes an illegal leader.

    The schedule follows the paper's description: candidate n1 collects
    n2's grant, a duplicate-message fault copies the response, and the
    second tally diverges — the spec's ``votesGranted`` *set* absorbs
    the duplicate while the buggy counter counts it twice (6 actions,
    matching Table 2's bug-revealing case length).
    """
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=True,
        max_duplicates=1, candidates=("n1",), name="xraft-bug1",
    ))
    grant = rv_response("n2", "n1", 1, True)
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
        label("DuplicateMessage", m=grant),
        label("HandleRequestVoteResponse", m=grant),
        label("HandleRequestVoteResponse", m=grant),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "xraft-bug1", spec, graph, case,
        XraftConfig(bug_duplicate_vote_count=True),
        expected_kind="inconsistent_state", expected_subject="votesGranted",
        servers=servers,
    )


def xraft_bug2() -> Scenario:
    """Xraft bug #2 [22] (Figure 8): a restart forgets the granted vote.

    Four nodes as in Figure 8: n2 grants its vote to candidate n1, then
    restarts.  The spec keeps ``votedFor[n2] = n1`` (votes are durable);
    the buggy implementation never persisted it, so the restarted node
    reports ``votedFor = Nil`` — and would go on to vote again for n4.
    """
    servers = ("n1", "n2", "n3", "n4")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        enable_restart=True, max_restarts=1,
        enable_drop=False, enable_duplicate=False,
        candidates=("n1", "n4"), name="xraft-bug2",
    ))
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
        label("Restart", i="n2"),
        # Figure 8's continuation: the second candidate solicits the same
        # voter.  Detection happens at the Restart step already, but the
        # full shape is kept so the verified schedule mirrors the figure.
        label("Timeout", i="n4"),
        label("RequestVote", i="n4", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n4", "n2", 1)),
        label("HandleRequestVoteResponse",
              m=rv_response("n2", "n4", 1, False)),
        label("HandleRequestVoteResponse",
              m=rv_response("n2", "n1", 1, True)),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "xraft-bug2", spec, graph, case,
        XraftConfig(bug_votedfor_not_persisted=True),
        expected_kind="inconsistent_state", expected_subject="votedFor",
        servers=servers,
    )


def xraft_bug3() -> Scenario:
    """Xraft bug #3 [24] (Figure 9): a stale candidate collects forbidden
    votes and a second leader becomes possible.

    Deep schedule: n1 wins term 1, accepts a client write and replicates
    it to n2 (uncommitted).  n3 — which never saw the entry — restarts,
    times out twice and solicits n2's vote in term 2.  The specification
    rejects (n2's log is fresher); the buggy implementation answers
    ``granted=true``, surfacing as an unexpected
    ``HandleRequestVoteResponse`` exactly as in Table 2.
    """
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=2, max_client_requests=1,
        enable_restart=True, max_restarts=1,
        enable_drop=False, enable_duplicate=False,
        candidates=("n1", "n3"), name="xraft-bug3",
    ))
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n1", 1, True)),
        label("BecomeLeader", i="n1"),
        label("ClientRequest", i="n1"),
        label("AppendEntries", i="n1", j="n2"),
        label("HandleAppendEntriesRequest",
              m=ae_request("n1", "n2", 1, 0, 0, [(1, 1)], 0)),
        label("HandleAppendEntriesResponse",
              m=ae_response("n2", "n1", 1, True, 1)),
        label("Restart", i="n3"),
        label("Timeout", i="n3"),   # term 1 (competing with the leader)
        label("Timeout", i="n3"),   # term 2
        label("RequestVote", i="n3", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n3", "n2", 2)),
        label("HandleRequestVoteResponse",
              m=rv_response("n2", "n3", 2, False)),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "xraft-bug3", spec, graph, case,
        XraftConfig(bug_stale_vote_grant=True),
        expected_kind="unexpected_action",
        expected_subject="HandleRequestVoteResponse",
        servers=servers,
    )
