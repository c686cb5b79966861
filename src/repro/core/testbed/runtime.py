"""The hook-facing side of Mocket's testbed.

:class:`MocketRuntime` is what the instrumentation in
:mod:`repro.core.mapping.annotations` talks to.  It owns the action
scheduler, the message sets and the shadow-state cache, and implements
``notifyAndBlock`` / ``checkAllStates`` semantics:

* ``begin_action`` — translate the action's parameters (and received
  message) into the spec domain, submit a notification, block the
  calling node thread until the scheduler enables it (or the node
  crashes / the run is aborted),
* ``end_action`` — record the messages the action sent, snapshot the
  node's shadow variables, and signal completion so the test runner can
  check the state.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ...runtime.node import Node, NodeCrashed
from ..mapping.registry import SpecMapping
from .messages import MessageSets
from .scheduler import ActionScheduler, Notification

__all__ = ["MocketRuntime"]


class MocketRuntime:
    """Shared testbed state for one controlled test-case run."""

    def __init__(self, mapping: SpecMapping, cluster):
        self.mapping = mapping
        self.cluster = cluster
        self.scheduler = ActionScheduler(cluster.network)
        self.message_sets = MessageSets(mapping.message_variables())
        # node_id -> {spec_var: raw impl value}; crashed nodes keep their
        # last snapshot, matching the spec's view of a dead node.
        self.shadow_cache: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.active = False

    # -- lifecycle -------------------------------------------------------------
    def attach(self) -> None:
        """Install this runtime as the cluster's controller."""
        self.cluster.mocket_runtime = self

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        """Stop controlling: release every blocked thread."""
        self.active = False
        self.scheduler.abort_all()

    # -- shadow snapshots -----------------------------------------------------------
    def snapshot_node(self, node: Node) -> None:
        with self._lock:
            self.shadow_cache[node.node_id] = dict(node.mocket_shadow)

    def snapshot_all(self) -> None:
        for node in self.cluster.live_nodes():
            self.snapshot_node(node)

    def node_stopping(self, node: Node) -> None:
        """Called by ``Node.stop``: keep the last state, drop stale
        notifications from the waiting set (their threads are dying)."""
        self.snapshot_node(node)
        self.scheduler.discard_node(node.node_id)

    # -- hook protocol -----------------------------------------------------------------
    def begin_action(self, scope) -> None:
        """``notifyAndBlock``: submit the notification and wait."""
        if not self.active:
            return
        node: Node = scope.node
        params = {
            key: self.mapping.to_spec_value(value)
            for key, value in scope.params.items()
        }
        recv_msg = None
        if scope.recv_msg is not None:
            recv_msg = self.mapping.to_spec_value(scope.recv_msg)
            decl = self.mapping.spec.actions.get(scope.name)
            if decl is not None and decl.msg_param is not None:
                params[decl.msg_param] = recv_msg
        notification = Notification(
            node.node_id, scope.name, params, recv_msg=recv_msg,
            msg_var=scope.msg_var, incarnation=node.incarnation,
        )
        scope.ticket = notification
        node.check_alive()
        self.scheduler.submit(notification)
        try:
            node.wait_or_crash(notification.enable_event)
        except NodeCrashed:
            # The node died while (or just before) waiting: make sure the
            # notification cannot linger and be matched later.
            self.scheduler.discard_notification(notification)
            raise
        if notification.directive == "abort":
            raise NodeCrashed(node.node_id)
        scope.directive = notification.directive

    def end_action(self, scope, failed: bool = False) -> None:
        """``checkAllStates`` side: record sends, snapshot, signal done."""
        notification: Optional[Notification] = scope.ticket
        if notification is None:
            return
        if not failed and self.active:
            for msg_var, fields in scope.sent_messages:
                self.message_sets.add(msg_var, self.mapping.to_spec_value(fields))
            self.snapshot_node(scope.node)
        self.scheduler.finish(notification)
