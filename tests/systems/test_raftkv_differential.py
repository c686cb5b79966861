"""Differential test: threaded raftkv (``node.py``) vs simulated (``sim.py``).

The two implementations claim to be the same protocol on two runtimes.
One op/fault script — elect, three client writes, crash + restart of a
follower, partition + heal — drives both; after every step each side is
brought to a quiescent point and the per-node committed logs, applied
KV and the ``engine.fingerprint`` of that mapped state must be equal.

The simulated side is quiescent when its event loop has run the timers
out; the threaded side when ``Network.wait_quiescent`` says so — the
monitor is what makes a quiescent point observable without sleeping.
What is compared is what a client can rely on: the committed *ops* in
order (the simulated leader's no-op entries and both sides' terms are
implementation detail) and the KV they apply to, per live node, without
node identity (the simulated election is seeded, not scripted, so which
node leads — and which followers the script hits — may differ).
"""

import pytest

from repro.engine import fingerprint_value
from repro.systems.raftkv import make_raftkv_cluster
from repro.systems.raftkv.node import KvRole
from repro.systems.raftkv.sim import (
    LEADER, SimRaftKvConfig, make_sim_raftkv_cluster,
)

WAIT = 5.0   # upper bound on reaching a quiescent point (threaded side)

#: ``follower 0/1`` = the first/second non-leader in id order
SCRIPT = (
    ("elect",),
    ("write", 1, 10), ("write", 2, 20), ("write", 1, 11),
    ("crash", 0), ("write", 3, 30), ("restart", 0),
    ("partition", 1), ("write", 2, 21), ("heal",),
    ("write", 4, 40),
)


class ThreadedRaftKv:
    """``raftkv/node.py`` on the threaded cluster, standalone (no
    testbed): the driver plays the timers — one election, heartbeats."""

    def __init__(self):
        self.cluster = make_raftkv_cluster()
        self.cluster.deploy()
        self.lagging = set()        # followers the leader cannot reach

    def close(self):
        self.cluster.shutdown()

    @property
    def leader(self):
        return self.cluster.node("n1")

    def followers(self):
        return sorted(n for n in self.cluster.node_ids if n != "n1")

    def settle(self):
        assert self.cluster.network.wait_quiescent(WAIT)

    def _heartbeat(self):
        """Replicate to every reachable follower until it holds the
        whole log, then once more so it learns the commit index."""
        leader = self.leader
        reachable = [p for p in self.followers() if p not in self.lagging]
        for _ in range(len(leader.log) + 2):
            for peer in reachable:
                leader.replicate(peer)
            self.settle()           # the commit advances on its own thread
            if all(leader.match_index[p] == len(leader.log)
                   for p in reachable):
                break
        for peer in reachable:
            leader.replicate(peer)
        self.settle()

    def elect(self):
        leader = self.leader
        leader.trigger_timeout()
        for peer in leader.peers:
            leader.solicit_vote(peer)
        self.settle()
        assert leader.role is KvRole.LEADER

    def write(self, key, value):
        assert self.leader.client_request((key, value))
        self._heartbeat()

    def crash(self, follower):
        node_id = self.followers()[follower]
        self.cluster.crash_node(node_id)
        self.lagging.add(node_id)
        self.settle()

    def restart(self, follower):
        node_id = self.followers()[follower]
        self.cluster.restart_node(node_id)
        self.lagging.discard(node_id)
        self._heartbeat()

    def partition(self, follower):
        node_id = self.followers()[follower]
        self.cluster.isolate(node_id)
        self.lagging.add(node_id)
        # a heartbeat the partition holds: its caller parks on the reply
        # and the cluster still reaches a quiescent point
        self.leader.spawn(lambda: self.leader.replicate(node_id))
        self.settle()
        assert self.cluster.network.held_snapshot()

    def heal(self):
        assert self.cluster.heal() >= 1
        self.lagging.clear()
        self.settle()
        self._heartbeat()

    def observe(self):
        return sorted(
            (tuple(tuple(value) for _term, value in node.log[:node.commit_index]),
             tuple(sorted(node.kv.items())))
            for node in self.cluster.live_nodes())


class SimulatedRaftKv:
    """``raftkv/sim.py`` on ``SimCluster``: timers and heartbeats are
    its own; the driver only pumps virtual time."""

    SETTLE = 2.0    # simulated seconds: many election timeouts

    def __init__(self, seed):
        self.cluster = make_sim_raftkv_cluster(SimRaftKvConfig(seed=seed))
        self.cluster.deploy()
        self.op_id = 0
        self.crashed = self.isolated = None

    def close(self):
        self.cluster.shutdown()

    @property
    def leader(self):
        (leader,) = [node for node in self.cluster.live_nodes()
                     if node.role is LEADER
                     and node.node_id != self.isolated]
        return leader

    def followers(self):
        return sorted(n for n in self.cluster.node_ids
                      if n != self.leader.node_id)

    def settle(self):
        self.cluster.run_for(self.SETTLE)

    def elect(self):
        self.settle()

    def write(self, key, value):
        self.op_id += 1
        assert self.leader.client_request(self.op_id, key, value)
        self.settle()

    def crash(self, follower):
        self.crashed = self.followers()[follower]
        self.cluster.crash_node(self.crashed)
        self.settle()

    def restart(self, follower):
        self.cluster.restart_node(self.crashed)
        self.settle()

    def partition(self, follower):
        self.isolated = self.followers()[follower]
        self.cluster.isolate(self.isolated)
        self.settle()

    def heal(self):
        self.cluster.heal()
        self.isolated = None
        self.settle()

    def observe(self):
        return sorted(
            (tuple((key, value) for _term, op_id, key, value
                   in node.log[:node.commit_index] if op_id >= 0),
             tuple(sorted(node.kv.items())))
            for node in self.cluster.live_nodes())


@pytest.mark.parametrize("seed", ["0", "7"])
def test_threaded_and_simulated_raftkv_agree_at_every_quiescent_point(seed):
    threaded, simulated = ThreadedRaftKv(), SimulatedRaftKv(seed)
    try:
        for step, *args in SCRIPT:
            getattr(threaded, step)(*args)
            getattr(simulated, step)(*args)
            ours, theirs = threaded.observe(), simulated.observe()
            assert ours == theirs, (step, args)
            assert fingerprint_value(tuple(ours)) == fingerprint_value(
                tuple(theirs)), (step, args)
        # the script ends with everything healed: every node holds
        # every write, in order
        writes = tuple((key, value) for step, *kv in SCRIPT
                       if step == "write" for key, value in [kv])
        assert threaded.observe() == [
            (writes, tuple(sorted(dict(writes).items())))] * 3
    finally:
        threaded.close()
        simulated.close()
