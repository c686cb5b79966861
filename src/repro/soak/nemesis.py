"""Seeded virtual-time fault schedules for soak runs.

A soak fault schedule is a list of timestamped events — *when*, in
simulated seconds, to isolate a node, crash one, delay a link, and
when to undo it — derived entirely from the soak seed.  It is the
"schedule" half of the ``(seed, schedule)`` replay contract: the
schedule is embedded in every soak report, and ``mocket soak
--schedule FILE`` re-runs a saved one verbatim instead of deriving it.

Faults are generated one at a time (each ends before the next begins)
so a minority is never silently wedged by overlapping disruptions; the
point of a soak is sustained throughput under recoverable turbulence,
with the monitor's ``stalled`` check watching the recovery.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from .. import artifact

__all__ = ["build_fault_schedule", "SCHEDULE_FORMAT", "read_schedule",
           "write_schedule"]

SCHEDULE_FORMAT = "mocket-soak-schedule/1"

# kind -> weight; partitions dominate, crashes and link delays season.
_KIND_WEIGHTS = (("partition", 5), ("crash", 3), ("delay", 2))


def build_fault_schedule(seed: str, until: float,
                         node_ids: Sequence[str],
                         mean_gap: float = 40.0,
                         min_duration: float = 3.0,
                         max_duration: float = 10.0,
                         start: float = 5.0) -> List[Dict[str, Any]]:
    """Derive the deterministic fault event list for one shard.

    Events are dicts ``{"at": t, "op": ..., ...}`` sorted by time;
    every disruptive event is paired with its undo (``heal`` /
    ``restart``) before the next fault begins.
    """
    rng = random.Random(f"{seed}:nemesis")
    kinds = [k for k, w in _KIND_WEIGHTS for _ in range(w)]
    events: List[Dict[str, Any]] = []
    t = start
    while True:
        t += rng.uniform(0.5 * mean_gap, 1.5 * mean_gap)
        if t >= until:
            break
        kind = rng.choice(kinds)
        duration = rng.uniform(min_duration, max_duration)
        if kind == "partition":
            victim = rng.choice(list(node_ids))
            events.append({"at": round(t, 6), "op": "partition",
                           "node": victim})
            events.append({"at": round(t + duration, 6), "op": "heal"})
        elif kind == "crash":
            victim = rng.choice(list(node_ids))
            events.append({"at": round(t, 6), "op": "crash",
                           "node": victim})
            events.append({"at": round(t + duration, 6), "op": "restart",
                           "node": victim})
        else:  # delay
            src, dst = rng.sample(list(node_ids), 2)
            count = rng.randrange(5, 50)
            events.append({"at": round(t, 6), "op": "delay",
                           "src": src, "dst": dst, "count": count})
            events.append({"at": round(t + duration, 6), "op": "heal"})
        t += duration
    return events


def write_schedule(path: str, seed: str, faults: bool,
                   events: List[List[Dict[str, Any]]]) -> None:
    """Save one event list per shard for ``mocket soak --schedule``."""
    artifact.write(path, {"format": SCHEDULE_FORMAT, "seed": seed,
                          "shards": len(events), "faults": faults,
                          "events": events})


def read_schedule(path: str) -> Tuple[List[List[Dict[str, Any]]], bool]:
    """``(events per shard, faults)`` from a :func:`write_schedule` file."""
    return artifact.read(path, SCHEDULE_FORMAT, _decode_schedule)


#: op -> the keys an event of it carries
_EVENT_KEYS = {"partition": {"at", "node"}, "crash": {"at", "node"},
               "restart": {"at", "node"}, "heal": {"at"},
               "delay": {"at", "src", "dst", "count"}}


def _decode_schedule(doc: Dict[str, Any]):
    events = doc["events"]
    for event in [event for shard in events for event in shard]:
        keys = _EVENT_KEYS.get(event["op"])
        if (keys is None or not keys <= event.keys()
                or not isinstance(event["at"], (int, float))):
            raise ValueError(f"not a fault event: {event!r}")
    return events, bool(doc.get("faults", any(events)))


def apply_schedule(cluster, scheduler, events: Sequence[Dict[str, Any]]) -> None:
    """Arm every schedule event on the shard's event loop."""
    for event in events:
        scheduler.schedule(max(0.0, event["at"] - scheduler.now()),
                           _fire, cluster, event)


def _fire(cluster, event: Dict[str, Any]) -> None:
    op = event["op"]
    if op == "partition":
        cluster.isolate(event["node"])
    elif op == "heal":
        cluster.heal()
    elif op == "crash":
        if cluster.is_up(event["node"]):
            cluster.crash_node(event["node"])
    elif op == "restart":
        if not cluster.is_up(event["node"]):
            cluster.restart_node(event["node"])
    elif op == "delay":
        cluster.delay_link(event["src"], event["dst"], event["count"])
    else:  # pragma: no cover - read_schedule checks every op
        raise ValueError(f"unknown soak fault op {op!r}")
