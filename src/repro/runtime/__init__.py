"""Pseudo-distributed cluster substrate: nodes, network, storage, faults.

Two execution modes share this package: the original **threaded** path
(real threads whose waits end on cluster quiescence — what the
controlled testbed drives) and the **deterministic simulation** path
under :mod:`repro.runtime.sim` (virtual clock, one seeded event loop,
zero threads — what ``mocket soak`` drives).  Neither path paces itself
with wall-clock sleeps.
"""

from .cluster import Cluster
from .network import Envelope, Network, RpcError
from .node import Node, NodeCrashed
from .storage import PersistentStore, StorageBackend

__all__ = [
    "Cluster",
    "Envelope",
    "Network",
    "Node",
    "NodeCrashed",
    "PersistentStore",
    "RpcError",
    "StorageBackend",
]
