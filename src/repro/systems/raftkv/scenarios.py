"""Bug-revealing schedules for raftkv: the two Raft-java implementation
bugs plus the two official Raft specification bugs (Table 2, Figures 10
and 11).

As with the pyxraft scenarios, every schedule is verified against the
specification by :func:`repro.core.testgen.scenario_case` — if a step is
not a transition of the verified state space, building the scenario
fails.
"""

from __future__ import annotations

from ...core.testgen import Scenario, label, scenario_case
from ...specs.raft import (
    RaftSpecOptions, ae_request, build_raft_spec, rv_request, rv_response,
)
from .config import RaftKvConfig

__all__ = [
    "raftkv_bug1",
    "raftkv_bug2",
    "raft_spec_bug_update_term",
    "raft_spec_bug_missing_reply",
]


def raftkv_bug1() -> Scenario:
    """Raft-java issue #3 [14]: a higher-term vote response is dropped.

    Candidate n2 reaches term 2 before n1's term-1 vote request arrives;
    n2's reply carries term 2.  The fixed implementation steps down via
    ``HandleRequestVoteResponse``; the buggy one silently discards the
    reply, so the scheduled action never notifies (missing action).
    """
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=2, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1", "n2"), name="raftkv-bug1",
    ))
    schedule = [
        label("Timeout", i="n2"),  # term 1
        label("Timeout", i="n2"),  # term 2
        label("Timeout", i="n1"),  # term 1
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n1", 2, False)),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "raftkv-bug1", spec, graph, case,
        RaftKvConfig(bug_drop_higher_term_response=True),
        expected_kind="missing_action",
        expected_subject="HandleRequestVoteResponse", servers=servers,
        correct_config=RaftKvConfig(),
    )


def raftkv_bug2() -> Scenario:
    """Raft-java issue #19 [19]: conflicting log suffixes are not truncated.

    n3 leads term 1 and appends an entry that is never replicated; n1
    leads term 2 with a different entry at the same index.  When n1
    replicates to n3, the specification truncates n3's conflicting entry,
    but the buggy implementation appends at the end — the follower's log
    diverges (inconsistent state for variable ``log``).
    """
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=2, max_client_requests=2,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1", "n3"), name="raftkv-bug2",
    ))
    schedule = [
        label("Timeout", i="n3"),  # term 1
        label("RequestVote", i="n3", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n3", "n2", 1)),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n3", 1, True)),
        label("BecomeLeader", i="n3"),
        label("ClientRequest", i="n3"),           # n3 log: ((1, 1),) — never replicated
        label("Timeout", i="n1"),  # term 1
        label("Timeout", i="n1"),  # term 2
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 2)),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n1", 2, True)),
        label("BecomeLeader", i="n1"),
        label("ClientRequest", i="n1"),           # n1 log: ((2, 2),)
        label("AppendEntries", i="n1", j="n3"),
        label("HandleAppendEntriesRequest",
              m=ae_request("n1", "n3", 2, 0, 0, [(2, 2)], 0)),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "raftkv-bug2", spec, graph, case,
        RaftKvConfig(bug_append_no_truncate=True),
        expected_kind="inconsistent_state", expected_subject="log",
        servers=servers, correct_config=RaftKvConfig(),
    )


def raft_spec_bug_update_term() -> Scenario:
    """Official Raft spec bug (Figure 10): standalone ``UpdateTerm``.

    The official specification lets ``UpdateTerm`` fire as an
    independent action.  raftkv — like every practical implementation —
    updates terms *inside* its handlers, so the scheduled ``UpdateTerm``
    step never notifies: *missing action UpdateTerm*.
    """
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1",), spec_bugs=True, name="raft-spec-bugs",
    ))
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("RequestVote", i="n1", j="n3"),
        label("UpdateTerm", m=rv_request("n1", "n2", 1)),
        label("UpdateTerm", m=rv_request("n1", "n3", 1)),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "raft-spec-bug-update-term", spec, graph, case,
        RaftKvConfig(),
        expected_kind="missing_action", expected_subject="UpdateTerm",
        servers=servers, is_spec_bug=True,
    )


def raft_spec_bug_missing_reply() -> Scenario:
    """Official Raft spec bug (Figure 11): the return-to-follower branch
    of ``HandleAppendEntriesRequest`` neither replies nor consumes.

    The fixed implementation (with the ``UpdateTerm`` snippet mapped so
    official-spec elections are drivable) steps down *and* replies in one
    action, so after the candidate handles the heartbeat the message
    bags disagree: *inconsistent state for variable messages*.
    """
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=("n1", "n2"), spec_bugs=True, name="raft-spec-bugs-reply",
    ))
    heartbeat = ae_request("n2", "n1", 1, 0, 0, [], 0)
    schedule = [
        label("Timeout", i="n1"),  # n1 candidate, term 1
        label("Timeout", i="n2"),  # n2 candidate, term 1
        label("RequestVote", i="n2", j="n3"),
        label("UpdateTerm", m=rv_request("n2", "n3", 1)),
        label("HandleRequestVoteRequest", m=rv_request("n2", "n3", 1)),
        label("HandleRequestVoteResponse", m=rv_response("n3", "n2", 1, True)),
        label("BecomeLeader", i="n2"),
        label("AppendEntries", i="n2", j="n1"),
        label("HandleAppendEntriesRequest", m=heartbeat),  # Figure 11 branch 2
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "raft-spec-bug-missing-reply", spec, graph, case,
        RaftKvConfig(instrument_update_term=True),
        expected_kind="inconsistent_state", expected_subject="messages",
        servers=servers, is_spec_bug=True,
    )
