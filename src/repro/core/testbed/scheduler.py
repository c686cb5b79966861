"""The action scheduler (Section 4.3.2).

Instrumented actions notify the scheduler and block.  The scheduler
matches notifications against the scheduled action of the current test
case: the matching notification's thread is resumed, all others stay
blocked in the waiting set "until they match their corresponding
scheduled actions".

The waiting set lives under the cluster network's lock and the testbed
waits on the network's ``idle`` condition, so each wait below is one
``Condition.wait`` on "what I am waiting for happened, or the cluster is
quiescent, or the deadline passed".  A quiescent cluster (no runnable
thread, no deliverable mail — see :mod:`repro.runtime.network`) cannot
produce the awaited notification or finish the enabled action, so the
verdict is given at once; the timeout is only the ceiling for systems
whose threads block outside a declared park point.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ...obs import METRICS, TRACER
from ...runtime.network import Network
from ...tlaplus.state import ActionLabel
from ...tlaplus.values import FrozenDict, freeze

__all__ = ["Notification", "ActionScheduler"]

_seq = itertools.count()


class Notification:
    """One blocked action waiting to be scheduled."""

    __slots__ = ("node_id", "name", "params", "recv_msg", "msg_var",
                 "enable_event", "done_event", "directive", "seq",
                 "submitted_at", "incarnation")

    def __init__(self, node_id: str, name: str, params: Dict[str, Any],
                 recv_msg: Optional[Any] = None, msg_var: Optional[str] = None,
                 incarnation: int = 0):
        self.node_id = node_id
        self.name = name
        self.params = FrozenDict({k: freeze(v) for k, v in params.items()})
        self.recv_msg = freeze(recv_msg) if recv_msg is not None else None
        self.msg_var = msg_var
        self.enable_event = threading.Event()
        self.done_event = threading.Event()
        self.directive = "normal"   # set by the scheduler: normal | drop | abort
        self.seq = next(_seq)
        self.submitted_at = 0.0     # set on submit; feeds the queue-wait timer
        # which restart generation of the node submitted this (0 = never
        # restarted); pending/stalled summaries use it to tell a
        # pre-bounce thread's leftovers from the relaunched node's work
        self.incarnation = incarnation

    def label(self) -> ActionLabel:
        return ActionLabel(self.name, dict(self.params))

    def matches(self, label: ActionLabel) -> bool:
        return self.name == label.name and self.params == label.params

    def summary(self) -> str:
        base = repr(self.label())
        node = (f"{self.node_id}#{self.incarnation}" if self.incarnation
                else self.node_id)
        return f"{base} on {node}"

    def __repr__(self) -> str:
        return f"Notification({self.summary()}, seq={self.seq})"


class ActionScheduler:
    """Waiting set + matching logic.

    ``network`` is the controlled cluster's fabric; a scheduler built
    without one (unit tests) has no cluster to observe and only ever
    ends a wait on a match or the deadline.
    """

    def __init__(self, network: Optional[Network] = None):
        self._pending: List[Notification] = []
        if network is not None:
            self._cond = network.idle
            self._quiescent = network.quiescent_locked
            self._wake = network.wake
        else:
            self._cond = threading.Condition()
            self._quiescent = lambda: False
            self._wake = threading.Event.set
        self.notified_count = 0

    # -- hook side ------------------------------------------------------------
    def submit(self, notification: Notification) -> None:
        notification.submitted_at = time.monotonic()
        if TRACER.enabled:
            TRACER.emit("scheduler.notification", name=notification.name,
                        node=notification.node_id, seq=notification.seq,
                        params=dict(notification.params))
            METRICS.counter("scheduler.notifications").inc()
        with self._cond:
            self._pending.append(notification)
            self.notified_count += 1
            self._cond.notify_all()

    # -- testbed side -----------------------------------------------------------
    def wait_for(self, predicate: Callable[[Notification], bool],
                 timeout: float) -> Optional[Notification]:
        """Wait until a pending notification satisfies ``predicate``.

        The matched notification is removed from the waiting set but NOT
        yet enabled — the caller sets its directive and calls
        :meth:`enable`.  Returns None as soon as the cluster is
        quiescent without a match, at the latest after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for notification in self._pending:
                    if predicate(notification):
                        self._pending.remove(notification)
                        if TRACER.enabled:
                            METRICS.histogram(
                                "scheduler.queue_wait_seconds"
                            ).observe(
                                time.monotonic() - notification.submitted_at
                            )
                        return notification
                if not self._may_progress(deadline):
                    return None

    def _may_progress(self, deadline: float) -> bool:
        """One wait (``self._cond`` held) for something to change; False
        when nothing can any more: the cluster is quiescent — an *idle
        verdict*, counted — or ``deadline`` has passed."""
        if self._quiescent():
            if TRACER.enabled:
                TRACER.emit("testbed.idle_verdict")
                METRICS.counter("testbed.idle_verdicts").inc()
            return False
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        self._cond.wait(remaining)
        return True

    def wait_for_label(self, label: ActionLabel, timeout: float) -> Optional[Notification]:
        """Wait for a notification matching the scheduled action exactly."""
        return self.wait_for(lambda n: n.matches(label), timeout)

    def enable(self, notification: Notification,
               directive: str = "normal") -> None:
        """Resume the blocked thread with the given fault directive,
        crediting it to the quiescence count before the wake."""
        notification.directive = directive
        self._wake(notification.enable_event)

    def finish(self, notification: Notification) -> None:
        """Hook side: the enabled action completed."""
        with self._cond:
            notification.done_event.set()
            self._cond.notify_all()

    def wait_done(self, notification: Notification, timeout: float) -> bool:
        """Wait for an enabled action to finish.  False as soon as the
        cluster is quiescent with the action unfinished (its thread is
        parked somewhere and nothing will wake it), at the latest after
        ``timeout``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not notification.done_event.is_set():
                if not self._may_progress(deadline):
                    return False
            return True

    # -- end-of-case bookkeeping ----------------------------------------------------
    def pending_snapshot(self) -> List[Notification]:
        with self._cond:
            return list(self._pending)

    def pending_with_name(self, name: str) -> List[Notification]:
        with self._cond:
            return [n for n in self._pending if n.name == name]

    def discard_notification(self, notification: Notification) -> None:
        """Remove one notification if it is still waiting (no-op otherwise)."""
        with self._cond:
            if notification in self._pending:
                self._pending.remove(notification)

    def discard_node(self, node_id: str) -> None:
        """Drop (and abort) every pending notification from ``node_id``.

        Used when a node crashes: its blocked threads are dying, so their
        notifications must not linger in the waiting set where they could
        be matched later.
        """
        with self._cond:
            stale = [n for n in self._pending if n.node_id == node_id]
            self._pending = [n for n in self._pending if n.node_id != node_id]
        for notification in stale:
            self.enable(notification, "abort")

    def abort_all(self) -> None:
        """Release every blocked thread with the abort directive (teardown)."""
        with self._cond:
            pending, self._pending = self._pending, []
        for notification in pending:
            self.enable(notification, "abort")

    def __repr__(self) -> str:
        with self._cond:
            return f"ActionScheduler({len(self._pending)} pending)"
