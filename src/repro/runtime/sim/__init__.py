"""Deterministic simulation harness (the DST/FoundationDB playbook).

One seeded event loop — :class:`SimScheduler` over a
:class:`VirtualClock` — owns every source of nondeterminism in a
simulated cluster: timers, message delivery order and latency, and
fault timing.  Given the same seed and workload, a run is bit-identical
on any machine, any ``PYTHONHASHSEED``, any ``--workers`` count, and a
failure replays from ``(seed, schedule)`` alone.  See
``docs/RUNTIME.md`` for the semantics and the soak workload built on
top (:mod:`repro.soak`, ``mocket soak``).

Nothing in this package (or in :mod:`repro.soak`) may read the wall
clock; ``tests/soak/test_no_wallclock_guard.py`` greps the simulated
path to keep it that way.
"""

from .clock import Clock, VirtualClock
from .cluster import SimCluster
from .network import SimNetwork
from .scheduler import SimEvent, SimScheduler

__all__ = [
    "Clock",
    "SimCluster",
    "SimEvent",
    "SimNetwork",
    "SimScheduler",
    "VirtualClock",
]
