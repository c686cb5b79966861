"""pyxraft: an asynchronous-communication Raft implementation.

The analogue of the paper's Xraft target (Section 5.2): every RPC is a
fire-and-forget message, incoming messages are dispatched on worker
threads, and the node keeps its persistent Raft state (currentTerm,
votedFor, log) in durable storage.  The paper's three Xraft bugs are
seeded behind :class:`XraftConfig` flags.
"""

from .config import XraftConfig
from .mapping import build_xraft_mapping
from .messages import payload_from_spec_msg, spec_msg_from_payload
from .node import Role, XraftNode, make_xraft_cluster

__all__ = [
    "Role",
    "XraftConfig",
    "XraftNode",
    "build_xraft_mapping",
    "make_xraft_cluster",
    "payload_from_spec_msg",
    "spec_msg_from_payload",
]
