"""Unit tests for the pseudo-distributed cluster substrate."""

import threading
import time

import pytest

from repro.runtime import (
    Cluster,
    Network,
    Node,
    NodeCrashed,
    PersistentStore,
    StorageBackend,
)


class EchoNode(Node):
    """Minimal node: counts started loops, persists a boot counter."""

    def __init__(self, node_id, cluster):
        super().__init__(node_id, cluster)
        self.received = []
        boots = self.storage.get("boots", 0) + 1
        self.storage.set("boots", boots)
        self.boots = boots

    def on_start(self):
        self.network.register(self.node_id)
        self.spawn(self._loop, name=f"{self.node_id}-loop")

    def _loop(self):
        while not self.stopping:
            envelope = self.network.receive(self.node_id, timeout=0.02)
            if envelope is not None:
                self.received.append(envelope.payload)


def make_cluster(n=3):
    ids = [f"n{i}" for i in range(1, n + 1)]
    return Cluster(ids, lambda node_id, cluster: EchoNode(node_id, cluster))


class TestStorage:
    def test_set_get_delete(self):
        store = PersistentStore("n1")
        store.set("k", 1)
        assert store.get("k") == 1
        assert "k" in store
        store.delete("k")
        assert store.get("k", "gone") == "gone"

    def test_write_count(self):
        store = PersistentStore("n1")
        store.set("a", 1)
        store.set("b", 2)
        store.delete("a")
        assert store.write_count == 3

    def test_snapshot_is_a_copy(self):
        store = PersistentStore("n1")
        store.set("k", 1)
        snap = store.snapshot()
        snap["k"] = 99
        assert store.get("k") == 1

    def test_clear(self):
        store = PersistentStore("n1")
        store.set("k", 1)
        store.clear()
        assert store.get("k") is None

    def test_backend_reuses_store(self):
        backend = StorageBackend()
        assert backend.store_for("n1") is backend.store_for("n1")
        assert backend.store_for("n1") is not backend.store_for("n2")

    def test_backend_wipe(self):
        backend = StorageBackend()
        backend.store_for("n1").set("k", 1)
        backend.wipe("n1")
        assert backend.store_for("n1").get("k") is None
        backend.wipe("missing")  # no-op


class TestNetwork:
    def test_send_and_receive(self):
        net = Network()
        net.register("a")
        net.register("b")
        assert net.send("a", "b", {"x": 1})
        envelope = net.receive("b", timeout=0.1)
        assert envelope.src == "a" and envelope.payload == {"x": 1}

    def test_send_to_down_node_is_dead_letter(self):
        net = Network()
        net.register("a")
        assert not net.send("a", "ghost", "hello")
        assert len(net.dead_letters) == 1

    def test_receive_empty_returns_none(self):
        net = Network()
        net.register("a")
        assert net.receive("a") is None
        assert net.receive("ghost", timeout=0.01) is None

    def test_pending_count(self):
        net = Network()
        net.register("a")
        net.send("x", "a", 1)
        net.send("x", "a", 2)
        assert net.pending_count("a") == 2
        assert net.pending_count("ghost") == 0

    def test_unregister_retains_mailbox(self):
        """Mailboxes survive crashes: a restarted node sees the backlog."""
        net = Network()
        net.register("a")
        net.send("x", "a", 1)
        net.unregister("a")
        assert not net.is_registered("a")
        # down, but the mailbox (and its contents) remain for the next
        # incarnation
        assert net.receive("a").payload == 1

    def test_send_to_down_node_is_retained(self):
        net = Network()
        net.register("a")
        net.unregister("a")
        assert not net.send("x", "a", "later")  # not delivered *now*
        net.register("a")
        assert net.receive("a").payload == "later"
        assert not net.dead_letters

    def test_redeliver_puts_message_back(self):
        net = Network()
        net.register("a")
        net.redeliver("a", {"k": 1}, src="b")
        envelope = net.receive("a")
        assert envelope.payload == {"k": 1}
        assert envelope.src == "b"

    def test_redeliver_creates_mailbox_if_missing(self):
        net = Network()
        net.redeliver("ghost", 1)
        assert net.receive("ghost").payload == 1


class TestCluster:
    def test_deploy_and_shutdown(self):
        cluster = make_cluster()
        cluster.deploy()
        assert len(cluster.live_nodes()) == 3
        assert cluster.is_up("n1")
        cluster.shutdown()
        assert not cluster.live_nodes()
        assert not cluster.deployed

    def test_double_deploy_raises(self):
        with make_cluster() as cluster:
            with pytest.raises(RuntimeError):
                cluster.deploy()

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            Cluster(["a", "a"], lambda i, c: EchoNode(i, c))

    def test_quorum_size(self):
        assert make_cluster(3).quorum_size == 2
        assert make_cluster(5).quorum_size == 3

    def test_message_flow_between_nodes(self):
        with make_cluster() as cluster:
            cluster.network.send("n1", "n2", "ping")
            deadline = time.monotonic() + 2
            node2 = cluster.node("n2")
            while time.monotonic() < deadline and not node2.received:
                time.sleep(0.01)
            assert node2.received == ["ping"]

    def test_crash_node(self):
        with make_cluster() as cluster:
            cluster.crash_node("n2")
            assert not cluster.is_up("n2")
            with pytest.raises(KeyError):
                cluster.node("n2")
            # messages to the dead node are dropped
            assert not cluster.network.send("n1", "n2", "ping")

    def test_crash_unknown_raises(self):
        with make_cluster() as cluster:
            cluster.crash_node("n1")
            with pytest.raises(KeyError):
                cluster.crash_node("n1")

    def test_restart_preserves_storage(self):
        with make_cluster() as cluster:
            first = cluster.node("n1")
            assert first.boots == 1
            restarted = cluster.restart_node("n1")
            assert restarted is not first
            assert restarted.boots == 2  # storage survived
            assert cluster.restart_counts["n1"] == 1

    def test_restart_after_crash(self):
        with make_cluster() as cluster:
            cluster.crash_node("n1")
            node = cluster.restart_node("n1")
            assert node.started
            assert cluster.is_up("n1")

    def test_peers_excludes_self(self):
        with make_cluster() as cluster:
            assert sorted(cluster.node("n1").peers) == ["n2", "n3"]


class TestNodeLifecycle:
    def test_double_start_raises(self):
        with make_cluster() as cluster:
            with pytest.raises(RuntimeError):
                cluster.node("n1").start()

    def test_stop_joins_threads(self):
        with make_cluster() as cluster:
            node = cluster.node("n1")
            threads = list(node._threads)
            node.stop()
            assert all(not t.is_alive() for t in threads)

    def test_check_alive_raises_after_stop(self):
        with make_cluster() as cluster:
            node = cluster.node("n1")
            node.stop()
            with pytest.raises(NodeCrashed):
                node.check_alive()

    def test_wait_or_crash_event_fires(self):
        with make_cluster() as cluster:
            node = cluster.node("n1")
            event = threading.Event()
            event.set()
            assert node.wait_or_crash(event) is True

    def test_wait_or_crash_timeout(self):
        with make_cluster() as cluster:
            node = cluster.node("n1")
            assert node.wait_or_crash(threading.Event(), timeout=0.05) is False

    def test_wait_or_crash_unblocks_on_stop(self):
        with make_cluster() as cluster:
            node = cluster.node("n1")
            event = threading.Event()
            crashed = []

            def waiter():
                try:
                    node.wait_or_crash(event)
                except NodeCrashed:
                    crashed.append(True)

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            time.sleep(0.05)
            node.stop()
            thread.join(timeout=2)
            assert crashed == [True]

    def test_spawn_swallows_node_crashed(self):
        with make_cluster() as cluster:
            node = cluster.node("n1")

            def dies():
                raise NodeCrashed(node.node_id)

            thread = node.spawn(dies)
            thread.join(timeout=2)
            assert not thread.is_alive()
