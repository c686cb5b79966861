"""In-memory network transport for the pseudo-distributed cluster.

One delivery style: ``send`` enqueues the message into the receiver's
inbox, and the receiver's loop thread dequeues and handles it.  The
paper's Raft-java style synchronous RPC is built on top of it: raftkv
sends a request and correlates the reply that comes back over ``send``
(``RaftKvNode._call_async``).

Inboxes are *mailboxes*: they belong to the node identity, not the node
process, so messages that were in flight when a node crashed are still
there when it restarts.  This matches the specification's view of the
network — a message stays in the message bag until a handler action
consumes it — and is what message-retrying transports (gRPC, Xraft's
channel layer) provide in the paper's targets.  A node that aborts
before *starting* to handle a dequeued message puts it back with
:meth:`redeliver`.

Messages to node ids that were never part of the cluster go to
``dead_letters``.

The network is also the injection point for the nemesis layer
(:mod:`repro.faults`): a **symmetric partition** splits the node ids
into groups and *holds* every message crossing the cut;
:meth:`heal` releases held messages into their mailboxes in send order,
so a partition delays delivery without losing messages — exactly the
specification's view, where an in-flight message simply stays in the
bag longer.  :meth:`reorder_inbox` permutes one mailbox with a seeded
RNG; the spec's message bag is order-free, so a correct implementation
must tolerate any permutation.

Beyond the symmetric partition the fabric supports three finer
disturbances, all released by the same :meth:`heal`:

* :meth:`cut_link` — an **asymmetric one-way cut**: only ``src -> dst``
  traffic is held; the reverse direction still flows,
* :meth:`delay_link` — hold the **next N** messages on one directed
  link (a deterministic stand-in for a latency spike: the held prefix
  arrives after heal, i.e. strictly later than everything else),
* :meth:`corrupt_inbox` — remove one pending message from a mailbox,
  modeling a corrupted frame the receiver's checksum rejects.  Unlike
  the holds above this *loses* the message, so it is a disruptive
  fault.

The network is also the cluster's **quiescence monitor**
(``docs/RUNTIME.md`` § Quiescence).  It counts the *runnable* node and
client-request threads (:meth:`counted`); a thread leaves the count only
at a declared park point — a blocking :meth:`receive` or :meth:`park` —
and whoever makes a parked thread runnable credits it *before* the wake
(:meth:`wake`, :meth:`halt`).  The cluster is quiescent iff the count is
0 and no *up* node has mail: nothing can happen until the testbed acts.
Mail for down nodes and envelopes held by the nemesis are retained, not
pending work.  A thread blocked anywhere else (a sleep, a raw
``Event.wait``) stays counted, so the cluster merely never looks
quiescent and waiters fall back to their upper bounds; threads that were
never counted (the testbed, a test calling ``receive`` itself) never
move the count.  :attr:`idle` is the condition the testbed waits on —
the action scheduler keeps its waiting set under the same lock, so
"match pending, quiescent or deadline" is one ``wait``.

Under the deterministic simulation harness the same fault semantics
apply, but delivery itself becomes a virtual-time event on the seeded
scheduler: see :class:`repro.runtime.sim.SimNetwork`, which subclasses
this fabric and reuses :meth:`_route` so partitions, cuts and delays
behave identically on both paths (``docs/RUNTIME.md``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["Envelope", "Network"]


class Envelope:
    """A message in flight: source, destination and payload."""

    __slots__ = ("src", "dst", "payload")

    def __init__(self, src: str, dst: str, payload: Any):
        self.src = src
        self.dst = dst
        self.payload = payload

    def __repr__(self) -> str:
        return f"Envelope({self.src} -> {self.dst}: {self.payload!r})"


class _Mailbox(deque):
    """One node identity's pending envelopes, plus the condition its
    blocked receiver waits on (under the network lock)."""

    __slots__ = ("ready",)

    def __init__(self, lock: threading.Lock):
        super().__init__()
        self.ready = threading.Condition(lock)


class Network:
    """The cluster's message fabric and quiescence monitor."""

    def __init__(self):
        self._inboxes: Dict[str, _Mailbox] = {}
        self._up: Dict[str, bool] = {}
        self._lock = threading.Lock()
        # quiescence monitor: runnable counted threads, the events parked
        # threads block on (event -> (owner's stop event, counted)), and
        # the condition the testbed waits on — all under ``_lock``
        self.idle = threading.Condition(self._lock)
        self._busy = 0
        self._parked: Dict[threading.Event, tuple] = {}
        self._tls = threading.local()
        self.sent_count = 0
        self.dead_letters: List[Envelope] = []
        # nemesis state: node_id -> partition group index, held envelopes
        self._partition: Dict[str, int] = {}
        self._held: List[Envelope] = []
        # directed link faults: (src, dst) -> True for a cut, or the
        # number of messages still to hold for a delay
        self._cuts: Dict[tuple, bool] = {}
        self._delays: Dict[tuple, int] = {}
        self.reorder_count = 0    # lifetime total of reorder operations
        self.corrupt_count = 0    # lifetime total of corrupted (dropped) messages
        self.corrupted: List[Envelope] = []

    # -- registration --------------------------------------------------------
    def register(self, node_id: str) -> None:
        """Attach ``node_id``; its mailbox (and backlog) is reused if it
        existed before — a restarted node sees retained messages."""
        with self._lock:
            if node_id not in self._inboxes:
                self._inboxes[node_id] = _Mailbox(self._lock)
            self._up[node_id] = True

    def unregister(self, node_id: str) -> None:
        """Mark ``node_id`` down (crash).  The mailbox is retained."""
        with self._lock:
            self._up[node_id] = False
            self._settled()  # its mail no longer counts as pending work

    def is_registered(self, node_id: str) -> bool:
        with self._lock:
            return self._up.get(node_id, False)

    # -- quiescence ----------------------------------------------------------
    def quiescent_locked(self) -> bool:
        """:attr:`quiescent` for a caller that holds :attr:`idle`."""
        return self._busy == 0 and not any(
            inbox and self._up.get(node_id)
            for node_id, inbox in self._inboxes.items())

    def _settled(self) -> None:
        """Wake the testbed if the cluster just became quiescent.  Called
        (lock held) wherever the count falls or pending mail goes away."""
        if self.quiescent_locked():
            self.idle.notify_all()

    @property
    def quiescent(self) -> bool:
        """True when no counted thread is runnable and no up node has
        mail: nothing happens until the testbed acts."""
        with self._lock:
            return self.quiescent_locked()

    def wait_quiescent(self, timeout: float) -> bool:
        """Block until the cluster is quiescent, at most ``timeout``
        seconds; False when the bound, not the condition, ended the wait."""
        deadline = time.monotonic() + timeout
        with self.idle:
            while not self.quiescent_locked():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.idle.wait(remaining)
            return True

    def counted(self, target: Callable[[], None]) -> Callable[[], None]:
        """Credit one runnable thread *now* and return the body to run
        on it — call before ``Thread.start()``, so the cluster cannot
        look quiescent between the decision to start work and the new
        thread's first instruction.  The body marks its thread as
        counted and gives the credit back when ``target`` returns."""
        with self._lock:
            self._busy += 1

        def body() -> None:
            self._tls.counted = True
            try:
                target()
            finally:
                with self._lock:
                    self._busy -= 1
                    self._settled()

        return body

    def park(self, event: threading.Event, timeout: Optional[float] = None,
             stop: Optional[threading.Event] = None) -> bool:
        """Park point: block the calling thread on ``event`` (one parker
        per event), at most ``timeout`` seconds; True when it fired.

        A counted thread leaves the count while parked.  :meth:`wake`
        credits it back before setting the event; :meth:`halt` on
        ``stop`` does the same.  After a timeout — or a bare
        ``event.set()`` that credited nothing — the thread credits
        itself, under the lock, so no wake can interleave.
        """
        counted = getattr(self._tls, "counted", False)
        with self._lock:
            if event.is_set() or (stop is not None and stop.is_set()):
                return event.is_set()
            self._parked[event] = (stop, counted)
            if counted:
                self._busy -= 1
                self._settled()
        event.wait(timeout)
        with self._lock:
            if self._parked.pop(event, None) is not None and counted:
                self._busy += 1
            return event.is_set()

    def _release(self, event: threading.Event) -> None:
        """Credit ``event``'s parked thread, then fire it.  Caller must
        hold ``self._lock`` — "already fired" and "parked" cannot
        interleave."""
        entry = self._parked.pop(event, None)
        if entry is not None and entry[1]:
            self._busy += 1
        event.set()

    def wake(self, event: threading.Event) -> None:
        """Fire ``event``, crediting the thread parked on it first."""
        with self._lock:
            self._release(event)

    def halt(self, stop: threading.Event) -> None:
        """Set a node's ``stop`` event and wake everything that node has
        parked: threads in :meth:`park` (credited first) and blocking
        :meth:`receive` calls that named ``stop`` (those take nothing
        and only re-enter the count to leave their loop)."""
        with self._lock:
            stop.set()
            for event in [event for event, (owner, _counted)
                          in self._parked.items() if owner is stop]:
                self._release(event)
            for inbox in self._inboxes.values():
                inbox.ready.notify_all()

    # -- asynchronous delivery --------------------------------------------------
    def _route(self, envelope: Envelope):
        """Classify an outgoing envelope under the active fault set.

        Caller must hold ``self._lock``.  Returns a triple
        ``(disposition, inbox, up)`` where disposition is ``"dead"``
        (unknown destination, dead-lettered), ``"held"`` (captured by a
        partition/cut/delay, released by :meth:`heal`) or ``"deliver"``.
        Shared with :class:`repro.runtime.sim.SimNetwork`, which applies
        the same fault semantics but schedules delivery as a virtual-time
        event instead of an immediate mailbox put.
        """
        self.sent_count += 1
        inbox = self._inboxes.get(envelope.dst)
        if inbox is None:
            self.dead_letters.append(envelope)
            return "dead", None, False
        if self._holds(envelope.src, envelope.dst):
            self._held.append(envelope)
            return "held", inbox, True  # held, not lost: delivered on heal()
        return "deliver", inbox, self._up.get(envelope.dst, False)

    @staticmethod
    def _put(inbox: _Mailbox, envelope: Envelope) -> None:
        """Mailbox put + receiver resume.  Caller must hold the lock, so
        the mail is pending work from the put until the woken receiver
        (which re-enters the count under the same lock) takes it."""
        inbox.append(envelope)
        inbox.ready.notify()

    def send(self, src: str, dst: str, payload: Any) -> bool:
        """Deliver ``payload`` into ``dst``'s mailbox.

        Returns True when the destination is up.  A known-but-down
        destination retains the message for its next incarnation (False
        is returned).  An unknown destination dead-letters it.
        """
        envelope = Envelope(src, dst, payload)
        with self._lock:
            disposition, inbox, up = self._route(envelope)
            if disposition == "deliver":
                self._put(inbox, envelope)
                return up
        return disposition == "held"

    def redeliver(self, node_id: str, payload: Any, src: str = "") -> None:
        """Put a dequeued-but-unhandled message back into the mailbox.

        Used when a node dies after dequeuing a message but before its
        handler ran: the message is still in flight from the
        specification's point of view.
        """
        with self._lock:
            inbox = self._inboxes.get(node_id)
            if inbox is None:
                inbox = _Mailbox(self._lock)
                self._inboxes[node_id] = inbox
            self._put(inbox, Envelope(src, node_id, payload))

    def receive(self, node_id: str, timeout: Optional[float] = None,
                stop: Optional[threading.Event] = None) -> Optional[Envelope]:
        """Dequeue the next message for ``node_id`` (None when empty).

        Non-blocking by default.  With ``timeout`` it waits at most that
        long for mail.  With ``stop`` — the owning node's stop event —
        it is the inbox loops' park point: it blocks until mail arrives
        or :meth:`halt` fires ``stop``, and a stopped node takes nothing
        (its mail stays for the next incarnation).
        """
        with self._lock:
            inbox = self._inboxes.get(node_id)
            if inbox is None:
                return None
            if not inbox and (timeout is not None or stop is not None):
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                counted = getattr(self._tls, "counted", False)
                if counted:
                    self._busy -= 1
                    self._settled()
                while not inbox and not (stop is not None and stop.is_set()):
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        break
                    inbox.ready.wait(remaining)
                if counted:
                    self._busy += 1
            if not inbox or (stop is not None and stop.is_set()):
                return None
            envelope = inbox.popleft()
            self._settled()
            return envelope

    def pending_count(self, node_id: str) -> int:
        with self._lock:
            inbox = self._inboxes.get(node_id)
            return len(inbox) if inbox is not None else 0

    # -- nemesis operations ---------------------------------------------------------
    def _crosses_cut(self, src: str, dst: str) -> bool:
        """True when an active partition separates ``src`` from ``dst``.

        Caller must hold ``self._lock``.  Node ids not named in any
        group (external clients, the testbed itself) see every node.
        """
        if not self._partition:
            return False
        src_group = self._partition.get(src)
        dst_group = self._partition.get(dst)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    def _holds(self, src: str, dst: str) -> bool:
        """True when an active fault holds a ``src -> dst`` message.

        Caller must hold ``self._lock``.  A delay consumes one unit of
        its hold budget per message; the link clears itself once the
        budget is spent (heal also clears it early).
        """
        if self._crosses_cut(src, dst):
            return True
        if (src, dst) in self._cuts:
            return True
        remaining = self._delays.get((src, dst), 0)
        if remaining > 0:
            if remaining == 1:
                del self._delays[(src, dst)]
            else:
                self._delays[(src, dst)] = remaining - 1
            return True
        return False

    def cut_link(self, src: str, dst: str) -> None:
        """Install an asymmetric cut: hold ``src -> dst`` traffic only.

        The reverse direction keeps flowing — the classic one-way
        network failure a symmetric partition cannot express.
        """
        with self._lock:
            self._cuts[(src, dst)] = True

    def delay_link(self, src: str, dst: str, count: int) -> None:
        """Hold the next ``count`` messages sent ``src -> dst``.

        A deterministic latency spike: the held prefix is released by
        :meth:`heal`, i.e. strictly after every message that was not
        delayed.  Deliberately not wall-clock based so replays are
        bit-deterministic.
        """
        if count < 1:
            raise ValueError(f"delay count must be >= 1, got {count}")
        with self._lock:
            self._delays[(src, dst)] = self._delays.get((src, dst), 0) + count

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Install a symmetric partition: nodes in different groups
        cannot exchange messages until :meth:`heal`."""
        assignment: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id in assignment:
                    raise ValueError(f"node {node_id!r} is in two groups")
                assignment[node_id] = index
        with self._lock:
            self._partition = assignment

    @property
    def partitioned(self) -> bool:
        with self._lock:
            return bool(self._partition)

    @property
    def disrupted(self) -> bool:
        """True while any nemesis network fault is active: a partition,
        a link cut, an unspent delay, or held (undelivered) messages."""
        with self._lock:
            return bool(self._partition or self._cuts or self._delays
                        or self._held)

    def heal(self) -> int:
        """Remove every network fault (partition, link cuts, delays)
        and flush held messages, in send order.

        Returns the number of released envelopes.  Envelopes whose
        destination mailbox disappeared meanwhile go to dead_letters.
        """
        with self._lock:
            self._partition = {}
            self._cuts = {}
            self._delays = {}
            held, self._held = self._held, []
            for envelope in held:
                inbox = self._inboxes.get(envelope.dst)
                if inbox is None:
                    self.dead_letters.append(envelope)
                else:
                    self._put(inbox, envelope)
        return len(held)

    def held_snapshot(self) -> List[Envelope]:
        with self._lock:
            return list(self._held)

    def reorder_inbox(self, node_id: str, rng) -> int:
        """Permute ``node_id``'s mailbox with ``rng.shuffle``.

        Returns the number of messages permuted (0 for an empty or
        unknown mailbox).  The spec's in-flight bag is order-free, so a
        correct implementation is insensitive to this fault.
        """
        with self._lock:
            inbox = self._inboxes.get(node_id)
            if inbox is None:
                return 0
            backlog = list(inbox)
            rng.shuffle(backlog)
            inbox.clear()
            inbox.extend(backlog)
            self.reorder_count += 1
        return len(backlog)

    def corrupt_inbox(self, node_id: str, rng) -> Optional[Envelope]:
        """Corrupt one pending message in ``node_id``'s mailbox: the
        rng picks a victim, which is removed — modeling a frame whose
        checksum the receiver rejects.  Returns the removed envelope,
        or None when the mailbox is empty or unknown.  The loss is
        outside the spec's bag semantics, so this is a disruptive
        fault.
        """
        with self._lock:
            inbox = self._inboxes.get(node_id)
            if not inbox:
                return None
            index = rng.randrange(len(inbox))
            victim = inbox[index]
            del inbox[index]
            self.corrupt_count += 1
            self.corrupted.append(victim)
            self._settled()
        return victim

    def __repr__(self) -> str:
        with self._lock:
            up = sum(1 for v in self._up.values() if v)
            return (
                f"Network({up} up / {len(self._inboxes)} mailboxes, "
                f"sent={self.sent_count}, dead={len(self.dead_letters)})"
            )
