"""Bug-revealing schedules for the two ZooKeeper bugs (Table 2)."""

from __future__ import annotations

from ...core.testgen import Scenario, label, scenario_case
from ...specs.zab import ZabSpecOptions, build_zab_spec
from .config import MiniZkConfig

__all__ = ["zk_bug_1419", "zk_bug_1653"]


def _vote(src, dst, rnd, vote):
    return {"mtype": "Vote", "mround": rnd, "mvote": tuple(vote),
            "msource": src, "mdest": dst}


def _leader_info(src, dst, epoch):
    return {"mtype": "LeaderInfo", "mepoch": epoch, "msource": src, "mdest": dst}


def zk_bug_1419() -> Scenario:
    """ZOOKEEPER-1419 [6]: leader election never settles (5 nodes).

    Two candidates start the same round; when n5 receives n4's *worse*
    vote it must only record it — the buggy implementation re-broadcasts
    its own vote to everyone, and the storm of redundant notifications
    matches no transition of the verified state space (*unexpected
    action HandleVote*, the paper's ``ReceiveMessage``).
    """
    servers = ("n1", "n2", "n3", "n4", "n5")
    spec = build_zab_spec(ZabSpecOptions(
        servers=servers, max_elections=2, max_crashes=0, max_restarts=0,
        starters=("n5", "n4"), name="zk-1419",
    ))
    v5 = (0, "n5")
    v4 = (0, "n4")
    schedule = [
        label("StartElection", i="n5"),
        label("StartElection", i="n4"),
        # n5 receives n4's worse vote: record only (the bug re-broadcasts)
        label("HandleVote", m=_vote("n4", "n5", 1, v4)),
        # consume n5's original notifications; the buggy duplicates that
        # shadow them become unexpected once the originals are gone
        label("HandleVote", m=_vote("n5", "n1", 1, v5)),
        label("HandleVote", m=_vote("n5", "n2", 1, v5)),
        label("HandleVote", m=_vote("n5", "n3", 1, v5)),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "zk-1419", spec, graph, case,
        MiniZkConfig(bug_rebroadcast_on_worse_vote=True),
        expected_kind="unexpected_action", expected_subject="HandleVote",
        servers=servers,
    )


def zk_bug_1653() -> Scenario:
    """ZOOKEEPER-1653 [7]: inconsistent epoch prevents startup.

    n3 is elected and proposes epoch 1; follower n2 persists
    ``acceptedEpoch = 1`` and crashes before NEWLEADER commits
    ``currentEpoch``.  After the restart the specification expects n2 to
    rejoin leader election, but the buggy implementation aborts on the
    mismatched epoch files: *missing action StartElection*.
    """
    servers = ("n1", "n2", "n3")
    spec = build_zab_spec(ZabSpecOptions(
        servers=servers, max_elections=2, max_crashes=1, max_restarts=1,
        starters=("n3", "n2"), name="zk-1653",
    ))
    v3 = (0, "n3")
    schedule = [
        label("StartElection", i="n3"),
        label("HandleVote", m=_vote("n3", "n2", 1, v3)),
        label("BecomeFollowing", i="n2"),
        label("HandleVote", m=_vote("n2", "n3", 1, v3)),
        label("BecomeLeading", i="n3"),
        label("SendLeaderInfo", i="n3", j="n2"),
        label("HandleLeaderInfo", m=_leader_info("n3", "n2", 1)),
        label("Crash", i="n2"),
        label("Restart", i="n2"),
        label("StartElection", i="n2"),
    ]
    graph, case = scenario_case(spec, schedule)
    return Scenario(
        "zk-1653", spec, graph, case,
        MiniZkConfig(bug_epoch_mismatch_abort=True),
        expected_kind="missing_action", expected_subject="StartElection",
        servers=servers,
    )
