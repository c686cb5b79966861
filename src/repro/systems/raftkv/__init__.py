"""raftkv: a synchronous-RPC Raft key-value store.

The analogue of the paper's Raft-java target (Section 5.2): every RPC
blocks its caller until the peer replies (request/response correlation
over the cluster network, each served on the receiver's worker thread),
mirroring Raft-java's synchronous communication.  The two Raft-java
bugs are seeded behind :class:`RaftKvConfig` flags, and the *fixed*
implementation is the vehicle for reproducing the two official-spec
bugs (Figures 10 and 11).
"""

from .config import RaftKvConfig
from .mapping import build_raftkv_mapping
from .node import RaftKvNode, make_raftkv_cluster

__all__ = [
    "RaftKvConfig",
    "RaftKvNode",
    "build_raftkv_mapping",
    "make_raftkv_cluster",
]
