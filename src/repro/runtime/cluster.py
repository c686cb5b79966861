"""The pseudo-distributed cluster.

The paper deploys each system as processes on one host and drives
crash/restart faults with shell scripts.  :class:`Cluster` is the same
thing in-process: a node factory, a shared network, shared persistent
storage, and the two "scripts" — :meth:`crash_node` (kill the process)
and :meth:`restart_node` (kill + relaunch with the same configuration
and the same durable storage).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from .network import Network
from .node import Node
from .storage import StorageBackend

__all__ = ["Cluster"]

NodeFactory = Callable[[str, "Cluster"], Node]


class Cluster:
    """A set of nodes plus their network and storage."""

    def __init__(self, node_ids: Sequence[str], factory: NodeFactory):
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node ids must be unique")
        self.node_ids: List[str] = list(node_ids)
        self.factory = factory
        self.network = Network()
        self.storage = StorageBackend()
        self.nodes: Dict[str, Node] = {}
        self._lock = threading.Lock()
        self.deployed = False
        # Mocket attachment point; None when the system runs standalone.
        self.mocket_runtime: Optional[Any] = None
        self.restart_counts: Dict[str, int] = {node_id: 0 for node_id in node_ids}

    # -- deployment ----------------------------------------------------------
    def deploy(self) -> None:
        """Create and start every node (a fresh cluster per test case)."""
        if self.deployed:
            raise RuntimeError("cluster already deployed")
        self.deployed = True
        for node_id in self.node_ids:
            self._launch(node_id)

    def shutdown(self) -> None:
        """Stop every node and tear the cluster down: signal them all,
        then join them all, so they wind down side by side."""
        nodes = list(self.nodes.values())
        for node in nodes:
            self.network.unregister(node.node_id)
            node.halt()
        for node in nodes:
            node.join()
        self.nodes.clear()
        self.deployed = False

    def _launch(self, node_id: str) -> Node:
        node = self.factory(node_id, self)
        self.nodes[node_id] = node
        node.start()
        return node

    # -- queries ---------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        """The live node object; raises KeyError if the node is down."""
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id!r} is not running")
        return node

    def is_up(self, node_id: str) -> bool:
        return node_id in self.nodes

    def live_nodes(self) -> List[Node]:
        return [self.nodes[node_id] for node_id in self.node_ids if node_id in self.nodes]

    @property
    def quorum_size(self) -> int:
        return len(self.node_ids) // 2 + 1

    # -- fault scripts -------------------------------------------------------------
    def crash_node(self, node_id: str) -> None:
        """The node-crash script: kill the node's process."""
        with self._lock:
            node = self.nodes.pop(node_id, None)
        if node is None:
            raise KeyError(f"cannot crash {node_id!r}: not running")
        self.network.unregister(node_id)
        node.stop()

    def restart_node(self, node_id: str) -> Node:
        """The node-restart script: kill then relaunch with the same
        configuration; the persistent store is preserved."""
        if node_id in self.nodes:
            self.crash_node(node_id)
        self.restart_counts[node_id] += 1
        return self._launch(node_id)

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Install a symmetric network partition (see ``Network.partition``)."""
        self.network.partition(groups)

    def heal(self) -> int:
        """Heal any partition, releasing held messages; returns the count."""
        return self.network.heal()

    def isolate(self, node_id: str) -> None:
        """Partition ``node_id`` away from every other node."""
        rest = [n for n in self.node_ids if n != node_id]
        self.partition([[node_id], rest])

    def partition_group(self, group: Sequence[str]) -> None:
        """Partition the nodes in ``group`` away from the rest of the
        cluster (a *partial* partition: the subset is arbitrary, not
        necessarily a single node)."""
        members = list(group)
        rest = [n for n in self.node_ids if n not in set(members)]
        self.partition([members, rest])

    def cut_link(self, src: str, dst: str) -> None:
        """Asymmetric one-way cut (see ``Network.cut_link``)."""
        self.network.cut_link(src, dst)

    def delay_link(self, src: str, dst: str, count: int) -> None:
        """Hold the next ``count`` messages on one directed link
        (see ``Network.delay_link``)."""
        self.network.delay_link(src, dst, count)

    # -- context manager -------------------------------------------------------------
    def __enter__(self) -> "Cluster":
        self.deploy()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        up = sorted(self.nodes)
        return f"Cluster({len(self.node_ids)} nodes, up={up})"
