"""Bundled chaos scenarios: hand-placed injections with known outcomes.

Like the bug scenarios under ``repro.systems.*.scenarios``, every
schedule here is verified against the specification by
:func:`~repro.core.testgen.scenario_case`; only the *injections* are
outside the spec.  Each scenario pins down one corner of the nemesis
contract:

* ``raftkv_bounce_leader`` — bounce (crash + restart) the freshly
  elected leader after the schedule completes.  The volatile leader
  role is lost, so the case cannot re-converge to the final verified
  state: an ``inconsistent_state`` divergence that triage attributes to
  the bounce.
* ``pyxraft_crash_blackout`` — crash the vote-granting follower right
  before its handler action is scheduled.  The notification can never
  arrive; the heal-and-re-wait ends with the cluster idle and the case
  reports ``stalled`` — attributed, never hanging.
* ``pyxraft_partition_transparent`` — partition the candidate away
  mid-election, forcing the runner down the heal-on-retry path; the
  case must still **pass**, because a partition only delays messages
  and per-step checking remains sound.
* ``pyxraft_modeled_message_faults`` — no chaos at all: the long-dormant
  ``DropMessage`` / ``DuplicateMessage`` spec actions are scheduled
  directly, so per-step checking stays exact and the case must pass.
* ``minizk_crash_restart`` — ZAB's modeled ``Crash``/``Restart`` fault
  actions scheduled directly against ``minizk``: a node dies, comes
  back with volatile election state wiped, and the cluster still
  elects a leader — every step, the faults included, is a verified
  spec transition, so the case must pass.
"""

from __future__ import annotations

from typing import Callable, List

from ..core.testgen import label, scenario_case
from ..specs.raft import (
    RaftSpecOptions, build_raft_spec, rv_request, rv_response,
)
from ..specs.zab import ZabSpecOptions, build_zab_spec
from .kinds import ChaosKind, InjectionMode
from .plan import FaultInjection, FaultPlan

__all__ = [
    "ChaosScenario",
    "raftkv_bounce_leader",
    "pyxraft_crash_blackout",
    "pyxraft_partition_transparent",
    "pyxraft_modeled_message_faults",
    "minizk_crash_restart",
    "all_chaos_scenarios",
]


class ChaosScenario:
    """A named chaos scenario with its expected triage outcome."""

    def __init__(self, name: str, target: str, spec, graph, case,
                 plan: FaultPlan, servers, expected_kind: str,
                 expected_verdict: str):
        self.name = name
        self.target = target          # a repro.systems.catalog target name
        self.spec = spec
        self.graph = graph
        self.case = case
        self.plan = plan
        self.servers = servers
        self.expected_kind = expected_kind        # DivergenceKind value or "pass"
        self.expected_verdict = expected_verdict  # "fault-induced" | "pass"


def raftkv_bounce_leader() -> ChaosScenario:
    """Bounce the elected leader: volatile role lost, no re-convergence."""
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        enable_drop=False, enable_duplicate=False,
        candidates=("n1",), name="raftkv-chaos-bounce",
    ))
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n1", 1, True)),
        label("BecomeLeader", i="n1"),
    ]
    graph, case = scenario_case(spec, schedule)
    plan = FaultPlan("scenario", [
        FaultInjection(InjectionMode.CHAOS, ChaosKind.BOUNCE.value,
                       case_id=case.case_id, step_index=len(schedule),
                       params={"node": "n1"}),
    ], chaos=True, target="raftkv")
    return ChaosScenario(
        "raftkv-chaos-bounce-leader", "raftkv", spec, graph, case, plan,
        servers, expected_kind="inconsistent_state",
        expected_verdict="fault-induced",
    )


def pyxraft_crash_blackout() -> ChaosScenario:
    """Crash the voter before its handler is scheduled: stalled, not hung."""
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        candidates=("n1",), name="xraft-chaos-crash",
    ))
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
    ]
    graph, case = scenario_case(spec, schedule)
    plan = FaultPlan("scenario", [
        FaultInjection(InjectionMode.CHAOS, ChaosKind.CRASH.value,
                       case_id=case.case_id, step_index=2,
                       params={"node": "n2"}),
    ], chaos=True, target="pyxraft")
    return ChaosScenario(
        "pyxraft-chaos-crash-blackout", "pyxraft", spec, graph, case, plan,
        servers, expected_kind="stalled", expected_verdict="fault-induced",
    )


def pyxraft_partition_transparent() -> ChaosScenario:
    """Partition the candidate mid-election: heal-on-retry, case passes."""
    servers = ("n1", "n2", "n3")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        candidates=("n1",), name="xraft-chaos-partition",
    ))
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("HandleRequestVoteRequest", m=rv_request("n1", "n2", 1)),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n1", 1, True)),
        label("BecomeLeader", i="n1"),
    ]
    graph, case = scenario_case(spec, schedule)
    plan = FaultPlan("scenario", [
        FaultInjection(InjectionMode.CHAOS, ChaosKind.PARTITION.value,
                       case_id=case.case_id, step_index=1,
                       params={"isolate": "n1"}),
    ], chaos=False, target="pyxraft")
    return ChaosScenario(
        "pyxraft-chaos-partition-transparent", "pyxraft", spec, graph, case,
        plan, servers, expected_kind="pass", expected_verdict="pass",
    )


def pyxraft_modeled_message_faults() -> ChaosScenario:
    """Duplicate the vote request in flight, drop one copy, deliver the
    other.  Every step — including both message faults — is a verified
    spec transition (``RaftSpecOptions.fault_actions()`` lists them), so
    the case runs with exact per-step checking and must pass."""
    servers = ("n1", "n2", "n3")
    options = RaftSpecOptions(
        servers=servers, max_term=1, max_client_requests=0,
        enable_restart=False, max_drops=1, max_duplicates=1,
        candidates=("n1",), name="xraft-modeled-message-faults",
    )
    assert options.fault_actions() == ("DropMessage", "DuplicateMessage")
    spec = build_raft_spec(options)
    request = rv_request("n1", "n2", 1)
    schedule = [
        label("Timeout", i="n1"),
        label("RequestVote", i="n1", j="n2"),
        label("DuplicateMessage", m=request),
        label("DropMessage", m=request),
        label("HandleRequestVoteRequest", m=request),
        label("HandleRequestVoteResponse", m=rv_response("n2", "n1", 1, True)),
    ]
    graph, case = scenario_case(spec, schedule)
    plan = FaultPlan("scenario", [], chaos=False, target="pyxraft")
    return ChaosScenario(
        "pyxraft-modeled-message-faults", "pyxraft", spec, graph, case,
        plan, servers, expected_kind="pass", expected_verdict="pass",
    )


def minizk_crash_restart() -> ChaosScenario:
    """Crash ``n1``, restart it (volatile election state wiped, durable
    epochs kept), then run a full leader election that the rebooted
    node participates in.  ``Crash`` and ``Restart`` are ZAB spec fault
    actions (``ZabSpecOptions.fault_actions()`` lists them), so the
    whole case — faults included — runs with exact per-step checking
    and must pass: ``minizk``'s first *verified* fault case."""
    servers = ("n1", "n2", "n3")
    options = ZabSpecOptions(
        servers=servers, max_elections=1, max_crashes=1, max_restarts=1,
        starters=("n3",), crashers=("n1",), name="zab-crash-restart",
    )
    assert options.fault_actions() == ("Crash", "Restart")
    spec = build_zab_spec(options)

    def vote(src, dst):
        return {"mtype": "Vote", "mround": 1, "mvote": (0, "n3"),
                "msource": src, "mdest": dst}

    schedule = [
        label("Crash", i="n1"),
        label("Restart", i="n1"),
        label("StartElection", i="n3"),
        label("HandleVote", m=vote("n3", "n1")),
        label("HandleVote", m=vote("n1", "n3")),
        label("BecomeLeading", i="n3"),
    ]
    graph, case = scenario_case(spec, schedule)
    plan = FaultPlan("scenario", [], chaos=False, target="minizk")
    return ChaosScenario(
        "minizk-crash-restart", "minizk", spec, graph, case, plan,
        servers, expected_kind="pass", expected_verdict="pass",
    )


def all_chaos_scenarios() -> List[Callable[[], ChaosScenario]]:
    return [raftkv_bounce_leader, pyxraft_crash_blackout,
            pyxraft_partition_transparent, pyxraft_modeled_message_faults,
            minizk_crash_restart]
