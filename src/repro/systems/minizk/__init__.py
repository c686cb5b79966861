"""minizk: a coordination service speaking ZAB.

The analogue of the paper's ZooKeeper target (Section 5.3): fast leader
election over vote notifications, then the ZAB synchronization
handshake (LEADERINFO → ACKEPOCH → NEWLEADER → ACK) that agrees on the
new epoch.  The two ZooKeeper bugs from Table 2 are seeded behind
:class:`MiniZkConfig` flags.
"""

from .config import MiniZkConfig
from .mapping import build_minizk_mapping
from .node import MiniZkNode, ZkState, make_minizk_cluster

__all__ = [
    "MiniZkConfig",
    "MiniZkNode",
    "ZkState",
    "build_minizk_mapping",
    "make_minizk_cluster",
]
