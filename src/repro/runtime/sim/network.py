"""Simulated network fabric: delivery as seeded virtual-time events.

:class:`SimNetwork` subclasses the threaded
:class:`~repro.runtime.network.Network` and keeps its entire fault
vocabulary — partitions, one-way cuts, delay budgets, reorder,
corruption — by reusing ``_route``.  What changes is *when* a message
arrives: instead of an immediate mailbox put, ``send`` draws a latency
from a seeded stream and schedules a delivery event on the
:class:`~repro.runtime.sim.scheduler.SimScheduler`.  A simulated node
registers a **handler** (``attach_handler``) and is called back with
each envelope at its delivery instant; there is no inbox-polling
thread.  Mailbox semantics survive crashes exactly as on the threaded
path: envelopes delivered while a node is down are retained in its
mailbox and drained (in order) when the next incarnation attaches.

Held messages released by :meth:`heal` are re-scheduled with fresh
seeded latencies from the heal instant, preserving the base-class
contract that a partition delays delivery without losing messages.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from ..network import Envelope, Network
from .scheduler import SimScheduler

__all__ = ["SimNetwork"]

DeliveryHandler = Callable[[Envelope], None]


class SimNetwork(Network):
    """The cluster fabric, rewired onto the simulation event loop."""

    def __init__(self, scheduler: SimScheduler, seed: str = "0",
                 min_latency: float = 0.001, max_latency: float = 0.010):
        super().__init__()
        if min_latency < 0 or max_latency < min_latency:
            raise ValueError(
                f"bad latency range [{min_latency}, {max_latency}]")
        self.scheduler = scheduler
        self.min_latency = min_latency
        self.max_latency = max_latency
        # String-seeded: independent of PYTHONHASHSEED.
        self._latency_rng = random.Random(f"{seed}:latency")
        self._handlers: Dict[str, DeliveryHandler] = {}
        self.delivered_count = 0

    # -- latency -------------------------------------------------------------
    def _draw_latency(self) -> float:
        if self.max_latency == self.min_latency:
            return self.min_latency
        return self._latency_rng.uniform(self.min_latency, self.max_latency)

    # -- delivery ------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any) -> bool:
        """Route under the active fault set, then schedule delivery at
        ``now + latency`` instead of putting into the mailbox directly."""
        envelope = Envelope(src, dst, payload)
        with self._lock:
            disposition, _inbox, up = self._route(envelope)
        if disposition == "deliver":
            self.scheduler.schedule(self._draw_latency(), self._deliver, envelope)
            return up
        return disposition == "held"

    def _deliver(self, envelope: Envelope) -> None:
        """The delivery event: hand to the live handler, or retain in
        the mailbox for the destination's next incarnation."""
        with self._lock:
            handler = self._handlers.get(envelope.dst)
            if handler is None:
                inbox = self._inboxes.get(envelope.dst)
                if inbox is None:
                    self.dead_letters.append(envelope)
                    return
                inbox.append(envelope)
                return
        self.delivered_count += 1
        handler(envelope)

    # -- handlers (the sim replacement for inbox-loop threads) ----------------
    def attach_handler(self, node_id: str, handler: DeliveryHandler) -> int:
        """Register ``node_id``'s delivery callback and drain any
        backlog its mailbox retained while it was down (scheduled as
        immediate events, preserving arrival order).  Returns the number
        of backlog envelopes drained."""
        self.register(node_id)
        backlog = []
        with self._lock:
            self._handlers[node_id] = handler
            inbox = self._inboxes.get(node_id)
            if inbox is not None:
                backlog.extend(inbox)
                inbox.clear()
        for envelope in backlog:
            self.scheduler.call_soon(self._deliver, envelope)
        return len(backlog)

    def detach_handler(self, node_id: str) -> None:
        """Drop the callback (crash): deliveries from now on are
        retained in the mailbox, exactly like the threaded path."""
        with self._lock:
            self._handlers.pop(node_id, None)
        self.unregister(node_id)

    # -- nemesis -------------------------------------------------------------
    def heal(self) -> int:
        """Remove every network fault and re-schedule held messages as
        fresh delivery events (send order, fresh seeded latencies)."""
        with self._lock:
            self._partition = {}
            self._cuts = {}
            self._delays = {}
            held, self._held = self._held, []
        for envelope in held:
            self.scheduler.schedule(self._draw_latency(), self._deliver, envelope)
        return len(held)

    def __repr__(self) -> str:
        with self._lock:
            handlers = len(self._handlers)
        return (f"SimNetwork({handlers} handlers, sent={self.sent_count}, "
                f"delivered={self.delivered_count}, t={self.scheduler.now():.3f})")
