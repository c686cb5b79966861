"""Nemesis primitives against the runtime layer: partition/heal,
reorder, bounce, crash — plus the network's hold/flush mechanics."""

import random

import pytest

from repro.faults import ChaosKind, FaultInjection, InjectionMode, Nemesis
from repro.runtime.network import Network


class _FakeRuntime:
    """Just enough of MocketRuntime for the bounce path."""

    def __init__(self):
        self.snapshots = []

    def snapshot_node(self, node):
        self.snapshots.append(node.node_id)


def chaos(kind, step=1, **params):
    return FaultInjection(InjectionMode.CHAOS, kind.value, case_id=0,
                          step_index=step, params=params)


@pytest.fixture
def cluster():
    from repro.systems.pyxraft import XraftConfig, make_xraft_cluster

    built = make_xraft_cluster(("n1", "n2", "n3"), XraftConfig())
    built.deploy()
    yield built
    built.shutdown()


class TestNetworkPartition:
    def test_cross_cut_sends_are_held_not_lost(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        network.partition([["n1"], ["n2"]])
        assert network.send("n1", "n2", {"x": 1}) is True
        assert network.pending_count("n2") == 0
        assert len(network.held_snapshot()) == 1
        released = network.heal()
        assert released == 1
        assert network.pending_count("n2") == 1

    def test_heal_flushes_in_send_order(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        network.partition([["n1"], ["n2"]])
        for value in range(3):
            network.send("n1", "n2", value)
        network.heal()
        got = [network.receive("n2").payload for _ in range(3)]
        assert got == [0, 1, 2]

    def test_unnamed_nodes_see_everyone(self):
        network = Network()
        for node in ("n1", "n2", "client"):
            network.register(node)
        network.partition([["n1"], ["n2"]])
        assert network.send("client", "n1", "hello") is True
        assert network.pending_count("n1") == 1


class TestNemesis:
    def test_partition_isolates_and_heal_releases(self, cluster):
        nemesis = Nemesis(cluster, _FakeRuntime(), random.Random(0), case_id=0)
        nemesis.apply(chaos(ChaosKind.PARTITION, isolate="n1"))
        assert cluster.network.partitioned
        assert len(nemesis.applied) == 1
        nemesis.heal_all()
        assert not cluster.network.partitioned

    def test_heal_all_without_partition_is_a_noop(self, cluster):
        nemesis = Nemesis(cluster, _FakeRuntime(), random.Random(0), case_id=0)
        assert nemesis.heal_all() == 0

    def test_reorder_records_permuted_count(self, cluster):
        nemesis = Nemesis(cluster, _FakeRuntime(), random.Random(0), case_id=0)
        summary = nemesis.apply(chaos(ChaosKind.REORDER, node="n2"))
        assert "messages permuted" in summary
        assert cluster.network.reorder_count == 1

    def test_bounce_restarts_and_snapshots(self, cluster):
        runtime = _FakeRuntime()
        nemesis = Nemesis(cluster, runtime, random.Random(0), case_id=0)
        summary = nemesis.apply(chaos(ChaosKind.BOUNCE, node="n2"))
        assert cluster.is_up("n2")
        assert cluster.restart_counts["n2"] == 1
        assert runtime.snapshots == ["n2"]
        assert "incarnation 1" in summary

    def test_crash_takes_the_node_down_and_tolerates_repeats(self, cluster):
        nemesis = Nemesis(cluster, _FakeRuntime(), random.Random(0), case_id=0)
        nemesis.apply(chaos(ChaosKind.CRASH, node="n3"))
        assert not cluster.is_up("n3")
        summary = nemesis.apply(chaos(ChaosKind.CRASH, node="n3"))
        assert "already down" in summary

    def test_applied_summaries_are_timing_free(self, cluster):
        nemesis = Nemesis(cluster, _FakeRuntime(), random.Random(0), case_id=0)
        nemesis.apply(chaos(ChaosKind.PARTITION, isolate="n1"))
        nemesis.apply(chaos(ChaosKind.CRASH, node="n3"))
        again = Nemesis(cluster, _FakeRuntime(), random.Random(0), case_id=0)
        expected = [chaos(ChaosKind.PARTITION, isolate="n1").summary(),
                    chaos(ChaosKind.CRASH, node="n3").summary()]
        assert nemesis.applied == expected
        assert again.applied == []


class TestLinkCut:
    def test_cut_is_one_way(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        network.cut_link("n1", "n2")
        assert network.send("n1", "n2", "held") is True
        assert network.pending_count("n2") == 0
        assert network.send("n2", "n1", "through") is True
        assert network.pending_count("n1") == 1

    def test_heal_releases_held_messages(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        network.cut_link("n1", "n2")
        network.send("n1", "n2", "held")
        assert network.disrupted
        assert network.heal() == 1
        assert not network.disrupted
        assert network.pending_count("n2") == 1


class TestDelay:
    def test_delay_holds_exactly_n_messages(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        network.delay_link("n1", "n2", 2)
        for value in range(3):
            network.send("n1", "n2", value)
        # first two held, budget exhausted, third sails through
        assert network.pending_count("n2") == 1
        assert network.receive("n2").payload == 2
        network.heal()
        got = [network.receive("n2").payload for _ in range(2)]
        assert got == [0, 1]

    def test_delay_rejects_nonpositive_counts(self):
        network = Network()
        network.register("n1")
        network.register("n2")
        with pytest.raises(ValueError):
            network.delay_link("n1", "n2", 0)

    def test_delay_accumulates_across_calls(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        network.delay_link("n1", "n2", 1)
        network.delay_link("n1", "n2", 1)
        network.send("n1", "n2", "a")
        network.send("n1", "n2", "b")
        assert network.pending_count("n2") == 0


class TestCorrupt:
    def test_corrupt_drops_exactly_one_pending_message(self):
        network = Network()
        for node in ("n1", "n2"):
            network.register(node)
        for value in range(3):
            network.send("n1", "n2", value)
        victim = network.corrupt_inbox("n2", random.Random(0))
        assert victim is not None
        assert network.pending_count("n2") == 2
        assert network.corrupt_count == 1
        assert network.corrupted == [victim]

    def test_corrupt_on_empty_inbox_is_a_noop(self):
        network = Network()
        network.register("n1")
        assert network.corrupt_inbox("n1", random.Random(0)) is None
        assert network.corrupt_count == 0

    def test_victim_pick_is_seed_deterministic(self):
        def pick(seed):
            network = Network()
            for node in ("n1", "n2"):
                network.register(node)
            for value in range(5):
                network.send("n1", "n2", value)
            return network.corrupt_inbox("n2", random.Random(seed)).payload

        assert pick(3) == pick(3)


@pytest.fixture
def quiet_cluster():
    """An undeployed cluster: the nemesis network primitives need
    registered inboxes, not running node threads — and without
    consumers, pending counts can be asserted race-free."""
    from repro.runtime.cluster import Cluster

    built = Cluster(("n1", "n2", "n3"), factory=lambda *a, **k: None)
    for node_id in built.node_ids:
        built.network.register(node_id)
    return built


class TestNewKindsViaNemesis:
    def test_partial_partition_splits_group_from_rest(self, quiet_cluster):
        nemesis = Nemesis(quiet_cluster, _FakeRuntime(), random.Random(0),
                          case_id=0)
        nemesis.apply(chaos(ChaosKind.PARTIAL_PARTITION, group=["n1", "n2"]))
        network = quiet_cluster.network
        assert network.send("n3", "n1", "held") is True
        assert network.pending_count("n1") == 0
        assert network.send("n1", "n2", "through") is True
        assert network.pending_count("n2") == 1
        nemesis.heal_all()
        assert network.pending_count("n1") == 1

    def test_link_cut_and_delay_flow_through_apply(self, quiet_cluster):
        nemesis = Nemesis(quiet_cluster, _FakeRuntime(), random.Random(0),
                          case_id=0)
        nemesis.apply(chaos(ChaosKind.LINK_CUT, src="n1", dst="n2"))
        nemesis.apply(chaos(ChaosKind.DELAY, src="n2", dst="n3", count=1))
        assert quiet_cluster.network.disrupted
        assert len(nemesis.applied) == 2
        assert nemesis.heal_all() >= 0
        assert not quiet_cluster.network.disrupted

    def test_corrupt_summary_names_the_dropped_edge(self, quiet_cluster):
        quiet_cluster.network.send("n1", "n2", {"x": 1})
        nemesis = Nemesis(quiet_cluster, _FakeRuntime(), random.Random(0),
                          case_id=0)
        summary = nemesis.apply(chaos(ChaosKind.CORRUPT, node="n2"))
        assert "dropped n1 -> n2" in summary
        empty = nemesis.apply(chaos(ChaosKind.CORRUPT, node="n3"))
        assert "no pending messages" in empty


class TestIncarnation:
    def test_nodes_report_their_restart_generation(self, cluster):
        assert cluster.node("n1").incarnation == 0
        cluster.restart_node("n1")
        assert cluster.node("n1").incarnation == 1
