"""The cluster's quiescence monitor (``docs/RUNTIME.md`` § Quiescence).

Three invariants keep "count is 0 and no up node has mail" equal to
"nothing happens until the testbed acts":

(i)   token hand-off — whoever makes a parked thread runnable credits
      it *before* the wake,
(ii)  undeclared blocking stays busy, and uncounted threads never move
      the count,
(iii) a crash loses nothing in flight; mail for down nodes and held
      envelopes are retained but are not pending work.
"""

import sys
import threading
import time

import pytest

from repro.core.testbed.runtime import MocketRuntime
from repro.core.testbed.scheduler import ActionScheduler, Notification
from repro.runtime import Cluster, Node, NodeCrashed
from repro.runtime.network import Network
from repro.systems.catalog import kit

WAIT = 5.0   # upper bound on every join below; none is expected to be hit


def quiesced(network):
    """Wait for quiescence (behind the hang guard); True when reached."""
    network.wait_quiescent()
    return network.quiescent


class ProbeEvent(threading.Event):
    """An event that records the monitor's count at the moment it fires."""

    def __init__(self, network):
        super().__init__()
        self.network = network
        self.busy_at_set = None

    def set(self):
        self.busy_at_set = self.network._busy
        super().set()


class IdleNode(Node):
    def on_start(self):
        self.network.register(self.node_id)


@pytest.fixture
def cluster():
    with Cluster(["a", "b"], IdleNode) as cluster:
        yield cluster


def park_on(node, event, then=lambda: None):
    """Spawn a node thread that parks on ``event`` and runs ``then``."""
    def body():
        node.wait_or_crash(event)
        then()

    thread = node.spawn(body)
    assert quiesced(node.network)
    return thread


class TestCreditBeforeWake:
    def test_spawn_credits_before_start(self, cluster, monkeypatch):
        network = cluster.network
        seen = []
        start = threading.Thread.start

        def probing_start(thread):
            seen.append(network._busy)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", probing_start)
        cluster.node("a").spawn(lambda: None).join(WAIT)
        assert seen == [1]
        assert quiesced(network)

    def test_wake_credits_the_parked_thread_first(self, cluster):
        network = cluster.network
        gate = ProbeEvent(network)
        hold = threading.Lock()
        with hold:
            # after the gate the thread blocks on a plain lock: busy
            thread = park_on(cluster.node("a"), gate, then=lambda: hold.acquire())
            assert network._busy == 0
            network.wake(gate)
            assert gate.busy_at_set == 1
            assert not network.quiescent
        thread.join(WAIT)
        assert quiesced(network)

    def test_enable_and_abort_credit_before_the_event_fires(self, cluster):
        network = cluster.network
        scheduler = ActionScheduler(network)
        for directive, release in (
                ("drop", lambda n: scheduler.enable(n, "drop")),
                ("abort", lambda n: scheduler.discard_node("a")),
                ("abort", lambda n: scheduler.abort_all())):
            notification = Notification("a", "Act", {})
            notification.enable_event = ProbeEvent(network)
            scheduler.submit(notification)
            thread = park_on(cluster.node("a"), notification.enable_event)
            release(notification)
            assert notification.enable_event.busy_at_set == 1
            assert notification.directive == directive
            thread.join(WAIT)

    def test_stop_credits_parked_threads_before_waking_them(self, cluster):
        network = cluster.network
        gate = ProbeEvent(network)
        crashed = []

        def body():
            try:
                cluster.node("a").wait_or_crash(gate)
            except NodeCrashed:
                crashed.append(True)
                raise

        node = cluster.node("a")
        node.spawn(body)
        assert quiesced(network)
        cluster.crash_node("a")
        assert gate.busy_at_set == 1 and crashed == [True]
        assert quiesced(network)

    def test_rpc_reply_credits_the_blocked_caller(self, monkeypatch):
        from repro.systems.raftkv import node as raftkv_node

        _spec, _mapping, factory = kit("raftkv")
        with factory() as cluster:
            network, n1 = cluster.network, cluster.node("n1")

            class ProbeWaiter:
                def __init__(self):
                    self.event = ProbeEvent(network)
                    self.reply = None

            monkeypatch.setattr(raftkv_node, "_RpcWaiter", ProbeWaiter)
            cluster.cut_link("n1", "n2")    # the request is held, replies flow
            got = []
            caller = n1.spawn(
                lambda: got.append(n1._call_async("n2", {"type": "x"})()))
            assert quiesced(network)
            (rpc_id, waiter), = n1._waiters.items()
            network.send("n2", "n1", {"kind": "reply", "rpc_id": rpc_id,
                                      "body": {"ok": True}})
            caller.join(WAIT)
            # the inbox thread that routed the reply, plus the caller it
            # credited before firing the event
            assert waiter.event.busy_at_set == 2
            assert got == [{"ok": True}]

    def test_mailbox_put_keeps_the_cluster_busy_until_taken(self, cluster):
        network = cluster.network
        stop = threading.Event()
        taken = []

        def loop():
            taken.append(network.receive("a", stop=stop))

        thread = cluster.node("a").spawn(loop)
        assert quiesced(network)
        with network._lock:
            # put + resume under one lock: never idle in between
            network._put(network._inboxes["a"], "mail")
            assert not network.quiescent_locked()
        thread.join(WAIT)
        assert taken == ["mail"] and quiesced(network)


class TestUndeclaredBlockingStaysBusy:
    def test_sleeping_thread_blocks_quiescence(self, cluster):
        network = cluster.network
        cluster.node("a").spawn(lambda: time.sleep(0.3))
        assert not network.quiescent
        assert quiesced(network)

    def test_raw_event_wait_blocks_quiescence(self, cluster):
        network = cluster.network
        gate = threading.Event()
        thread = cluster.node("a").spawn(gate.wait)
        assert not network.quiescent
        gate.set()
        thread.join(WAIT)
        assert network.quiescent

    def test_timed_out_park_credits_itself(self, cluster):
        network = cluster.network
        hold = threading.Lock()
        results = []

        def body():
            results.append(cluster.node("a").wait_or_crash(
                threading.Event(), timeout=0.05))
            hold.acquire()

        with hold:
            thread = cluster.node("a").spawn(body)
            while not results:          # parked, then timed out
                time.sleep(0.01)
            assert results == [False]
            assert not network.quiescent and network._busy == 1
        thread.join(WAIT)
        assert network._busy == 0 and not network._parked

    def test_bare_set_of_a_parked_event_is_credited_by_the_waiter(self, cluster):
        network = cluster.network
        gate = threading.Event()
        hold = threading.Lock()
        with hold:
            thread = park_on(cluster.node("a"), gate, then=lambda: hold.acquire())
            gate.set()                  # not through network.wake
            deadline = time.monotonic() + WAIT
            while network._busy != 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert network._busy == 1
        thread.join(WAIT)
        assert network._busy == 0

    def test_uncounted_threads_never_move_the_count(self, cluster):
        network, node = cluster.network, cluster.node("a")
        assert network.receive("a", timeout=0.01) is None
        assert node.wait_or_crash(threading.Event(), timeout=0.01) is False
        event = threading.Event()
        network.wake(event)
        assert node.wait_or_crash(event) is True
        network.send("b", "a", 1)
        assert network.receive("a", timeout=WAIT).payload == 1
        assert network._busy == 0 and network.quiescent


class TestWhatCountsAsPendingWork:
    def test_up_node_mail_is_pending_work(self):
        network = Network()
        network.register("a")
        assert network.quiescent
        network.send("x", "a", 1)
        assert not network.quiescent
        network.receive("a")
        assert network.quiescent

    def test_down_node_mail_is_retained_but_not_pending(self):
        network = Network()
        network.register("a")
        network.send("x", "a", 1)
        network.unregister("a")
        assert network.quiescent and network.pending_count("a") == 1
        network.register("a")          # the next incarnation sees it
        assert not network.quiescent

    def test_held_envelopes_are_not_pending(self):
        network = Network()
        network.register("a")
        network.register("b")
        network.partition([["a"], ["b"]])
        network.send("a", "b", 1)
        network.cut_link("b", "a")
        network.send("b", "a", 2)
        assert len(network.held_snapshot()) == 2 and network.quiescent
        network.heal()
        assert not network.quiescent

    def test_corrupting_the_last_message_makes_the_cluster_idle(self):
        import random

        network = Network()
        network.register("a")
        network.send("x", "a", 1)
        woken = []
        waiter = threading.Thread(
            target=lambda: woken.append(quiesced(network)))
        waiter.start()
        network.corrupt_inbox("a", random.Random(0))
        waiter.join(WAIT)
        assert woken == [True]


class TestCrashLosesNothingInFlight:
    def test_stopped_receiver_leaves_its_mail_in_the_mailbox(self, cluster):
        network, node = cluster.network, cluster.node("a")
        handled = []
        thread = node.spawn(lambda: node.serve_inbox(handled.append))
        assert quiesced(network)
        with network._lock:             # mail lands as the node stops
            network._put(network._inboxes["a"], "late")
            node._stop_event.set()
        network.halt(node._stop_event)
        thread.join(WAIT)
        assert not thread.is_alive()
        assert handled == [] and network.pending_count("a") == 1

    def test_handler_that_dies_before_running_remailboxes_its_payload(
            self, cluster):
        network, node = cluster.network, cluster.node("a")

        def handle(payload):
            node.wait_or_crash(threading.Event())   # blocked like a hook

        node.spawn_handler(handle, "mail", src="b")
        assert quiesced(network)
        cluster.crash_node("a")
        (envelope,) = network._inboxes["a"]
        assert (envelope.src, envelope.payload) == ("b", "mail")

    def test_reply_that_raced_the_stop_is_remailboxed(self):
        spec, mapping, factory = kit("raftkv")
        cluster = factory()
        runtime = MocketRuntime(mapping, cluster)
        runtime.attach()
        runtime.activate()
        cluster.deploy()
        try:
            n1 = cluster.node("n1")
            cluster.partition([["n1"], ["n2", "n3"]])
            pending = n1._call_async("n2", {"type": "held"})
            reply = {"type": "RequestVoteResponse", "term": 1,
                     "granted": True, "src": "n2", "dst": "n1"}
            (waiter,) = n1._waiters.values()
            waiter.reply = reply        # the reply lands ...
            cluster.crash_node("n1")    # ... as the node is stopped
            assert pending() == reply
            with pytest.raises(NodeCrashed):
                n1._deliver_reply_safe(reply)
            assert cluster.network.pending_count("n1") == 1
        finally:
            runtime.deactivate()
            cluster.shutdown()


class TestStress:
    def test_hand_off_never_looks_idle_under_preemption(self, cluster):
        """A token is passed around more threads than cores with a
        shortened switch interval; an observer must never see the
        cluster idle while the token is in flight."""
        network, node = cluster.network, cluster.node("a")
        rounds, players = 300, 6
        events = [threading.Event() for _ in range(players)]
        done = threading.Event()
        false_idle = []

        def player(index):
            for _ in range(rounds):
                node.wait_or_crash(events[index])
                events[index].clear()
                network.wake(events[(index + 1) % players])
            if index == players - 1:
                done.set()

        def observer():
            # the token is always held or in flight until `done`
            while not done.is_set():
                with network._lock:
                    if network.quiescent_locked() and not done.is_set():
                        false_idle.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [node.spawn(lambda i=i: player(i))
                       for i in range(players)]
            assert quiesced(network)
            watcher = threading.Thread(target=observer, daemon=True)
            network.wake(events[0])
            watcher.start()
            assert done.wait(30.0)
            watcher.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
            for event in events:
                network.wake(event)
            for thread in threads:
                thread.join(WAIT)
        assert not false_idle
        assert all(not thread.is_alive() for thread in threads)
