"""Node base class: lifecycle, threads and Mocket attachment points.

A :class:`Node` is one process of the pseudo-distributed cluster.  It
owns worker threads (e.g. an inbox loop), a persistent store, and the
per-node shadow state Mocket's instrumentation writes into.  Crashing a
node sets its stop event and wakes every thread the node has parked
(:meth:`Node.halt`); an instrumentation hook blocked on the Mocket
testbed unwinds via :class:`NodeCrashed`, exactly like killing a JVM
tears down its threads.

Node threads are counted by the cluster's quiescence monitor
(:class:`~repro.runtime.network.Network`): :meth:`Node.spawn` credits a
thread before starting it, and a thread leaves the count only where it
blocks in :meth:`Node.wait_or_crash` or :meth:`Node.serve_inbox`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from .network import Envelope
from .storage import PersistentStore

__all__ = ["Node", "NodeCrashed"]


class NodeCrashed(Exception):
    """Raised inside a node thread when the node is killed mid-action."""


class Node:
    """Base class for all systems under test.

    Subclasses implement :meth:`on_start` (spawn loops, initialize
    state) and may implement :meth:`on_stop`.  ``mocket_shadow`` holds
    the shadow copies of annotated variables — the analogue of the
    ``Mocket$x`` fields the paper's instrumentation adds.
    """

    #: upper bound on one thread's wind-down; a woken thread exits at once
    JOIN_TIMEOUT = 5.0

    def __init__(self, node_id: str, cluster: "Any"):
        self.node_id = node_id
        self.cluster = cluster
        self.network = cluster.network
        self.storage: PersistentStore = cluster.storage.store_for(node_id)
        self.peers: List[str] = [n for n in cluster.node_ids if n != node_id]
        self._threads: List[threading.Thread] = []
        self._stop_event = threading.Event()
        self._lock = threading.RLock()
        self.started = False
        # Mocket attachment points (populated by the instrumentation).
        self.mocket_shadow: Dict[str, Any] = {}

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            raise RuntimeError(f"node {self.node_id} already started")
        self.started = True
        self._stop_event.clear()
        self.on_start()

    def stop(self) -> None:
        """Stop the node and join its threads (crash or teardown)."""
        self.halt()
        self.join()

    def halt(self) -> None:
        """Signal the stop without waiting: set the stop event and wake
        every thread this node has parked (hook blocks, RPC waits, the
        blocking receive).  ``Cluster.shutdown`` halts every node before
        joining any, so the nodes wind down side by side."""
        if not self.started:
            return
        self.started = False
        self.network.halt(self._stop_event)
        self.on_stop()
        runtime = getattr(self.cluster, "mocket_runtime", None)
        if runtime is not None:
            runtime.node_stopping(self)

    def join(self) -> None:
        """Wait for a halted node's threads to exit."""
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(self.JOIN_TIMEOUT)
        self._threads.clear()

    def on_start(self) -> None:  # pragma: no cover - overridden
        """Subclass hook: spawn loops, initialize protocol state."""

    def on_stop(self) -> None:
        """Subclass hook: release resources before threads are joined."""

    # -- threads -----------------------------------------------------------------
    def spawn(self, target: Callable[[], None], name: Optional[str] = None) -> threading.Thread:
        """Start a daemon worker thread owned by this node.

        The target is wrapped so that :class:`NodeCrashed` (raised when
        the node dies while the thread is blocked in a hook) terminates
        the thread silently.
        """

        def runner() -> None:
            try:
                target()
            except NodeCrashed:
                pass

        dying = self._stop_event.is_set()
        thread = threading.Thread(
            target=runner if dying else self.network.counted(runner),
            name=name or f"{self.node_id}-worker", daemon=True
        )
        if dying:
            return thread  # node is dying: never start (or count) new work
        thread.start()
        self._threads.append(thread)
        return thread

    def spawn_handler(self, handle: Callable[[Any], None], payload: Any,
                      src: str = "") -> None:
        """Run ``handle(payload)`` on a thread of its own.  If the node
        dies before the handler ran, ``payload`` goes back to the
        mailbox (as sent by ``src``): it is still in flight."""

        def body() -> None:
            try:
                handle(payload)
            except NodeCrashed:
                self.network.redeliver(self.node_id, payload, src=src)
                raise

        self.spawn(body)

    @property
    def stopping(self) -> bool:
        return self._stop_event.is_set()

    @property
    def mocket_controlled(self) -> bool:
        """True while a Mocket testbed is driving this cluster.

        Systems use this to switch off self-driven scheduling (timers,
        follow-up tasks) whose spec actions the testbed triggers itself.
        """
        runtime = getattr(self.cluster, "mocket_runtime", None)
        return runtime is not None and runtime.active

    def check_alive(self) -> None:
        """Raise :class:`NodeCrashed` if the node has been stopped."""
        if self._stop_event.is_set():
            raise NodeCrashed(self.node_id)

    def wait_or_crash(self, event: threading.Event,
                      timeout: Optional[float] = None) -> bool:
        """Park on ``event``, aborting with :class:`NodeCrashed` on stop.

        Returns True when the event fired, False on timeout.  Fire the
        event with ``network.wake(event)`` so the parked thread is back
        in the quiescence count before it runs.
        """
        fired = self.network.park(event, timeout, stop=self._stop_event)
        self.check_alive()
        return fired

    def serve_inbox(self, handle: Callable[[Envelope], None]) -> None:
        """The inbox loop: block in ``receive`` and pass each envelope
        to ``handle`` until the node stops.  A message dequeued as the
        node dies goes back to the mailbox — it is still in flight."""
        while not self.stopping:
            envelope = self.network.receive(self.node_id,
                                            stop=self._stop_event)
            if envelope is None:
                continue
            if self.stopping:
                self.network.redeliver(self.node_id, envelope.payload,
                                       src=envelope.src)
                break
            handle(envelope)

    # -- convenience ---------------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        return self._lock

    @property
    def incarnation(self) -> int:
        """How many times this node id has been restarted (0 = first
        launch).  Fault-injection events carry this so a report can tell
        which incarnation of a node an injection hit."""
        return self.cluster.restart_counts.get(self.node_id, 0)

    def __repr__(self) -> str:
        status = "up" if self.started else "down"
        return f"{type(self).__name__}({self.node_id}, {status})"
