"""The soak runner: open-loop workload over sharded simulations.

One *shard* is a complete simulated raftkv cluster on its own seeded
event loop: an open-loop client generator submits writes at a fixed
simulated rate (clients do not wait for acks — the paper's production
workloads are open-loop, and so is this one), a seeded nemesis
schedule disrupts the cluster, the :class:`~repro.soak.monitor
.SoakMonitor` checks invariants, and periodic triage snapshots record
progress on the virtual timeline.

A run of ``--ops N`` splits N over ``--shards`` fixed shards with
derived seeds (``{seed}:shard{i}``); ``--workers`` picks how many OS
processes execute them (forked workers of
:func:`repro.engine.executor.run_indexed` when the platform has fork,
serial otherwise) and **cannot** change a byte of the merged report — the
determinism guard pins that, together with ``PYTHONHASHSEED``
independence, in ``tests/soak/test_determinism_guard.py``.

Termination is simulated-time, never wall-time: the generator stops
at its submit horizon, then the shard drains in snapshot windows
until apply progress stops (with the monitor's ``stalled`` check
separating a quiet tail from a wedged cluster).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..engine.executor import parallel_useful, run_indexed
from ..obs import METRICS, TRACER
from ..runtime.sim import SimScheduler
from ..systems.raftkv.sim import (
    LEADER,
    SimRaftKvConfig,
    make_sim_raftkv_cluster,
)
from .monitor import SoakMonitor
from .nemesis import apply_schedule, build_fault_schedule
from .report import totals as _totals

__all__ = ["SoakConfig", "run_shard", "run_soak"]

# Simulated seconds between open-loop generator ticks.
_TICK = 0.25
# Generator starts after the first election has settled.
_WARMUP = 1.0
# Give up draining after this many progress-free snapshot windows.
_MAX_DRAIN_WINDOWS = 40

SOAK_BUGS = ("bug_skip_apply",)


class SoakConfig:
    """Everything a soak run depends on; all of it seeds the outcome."""

    def __init__(self,
                 target: str = "raftkv",
                 ops: int = 100000,
                 seed: str = "0",
                 shards: int = 4,
                 workers: int = 1,
                 rate: float = 200.0,
                 key_space: int = 1024,
                 faults: bool = False,
                 bug: Optional[str] = None,
                 snapshot_every: float = 25.0,
                 checkpoint_every: int = 1000,
                 schedule: Optional[List[List[Dict[str, Any]]]] = None):
        if target != "raftkv":
            raise ValueError(f"mocket soak drives raftkv, not {target!r}")
        if ops < 1:
            raise ValueError("ops must be >= 1")
        if shards < 1 or workers < 1:
            raise ValueError("shards and workers must be >= 1")
        if bug is not None and bug not in SOAK_BUGS:
            raise ValueError(f"unknown soak bug {bug!r} (have {SOAK_BUGS})")
        if schedule is not None and len(schedule) != shards:
            raise ValueError(
                f"schedule has {len(schedule)} shard entries, need {shards}")
        nodes = SimRaftKvConfig().node_ids
        for event in [event for shard in schedule or () for event in shard]:
            if any(event.get(key, nodes[0]) not in nodes
                   for key in ("node", "src", "dst")):
                raise ValueError(f"schedule event {event!r} names a node "
                                 f"outside {', '.join(nodes)}")
        self.target = target
        self.ops = ops
        self.seed = str(seed)
        self.shards = shards
        self.workers = workers
        self.rate = float(rate)
        self.key_space = key_space
        self.faults = faults
        self.bug = bug
        self.snapshot_every = float(snapshot_every)
        self.checkpoint_every = checkpoint_every
        self.schedule = schedule

    def shard_seed(self, index: int) -> str:
        return f"{self.seed}:shard{index}"

    def shard_ops(self) -> List[int]:
        base, extra = divmod(self.ops, self.shards)
        return [base + (1 if i < extra else 0) for i in range(self.shards)]


class _Generator:
    """Open-loop seeded client: fires at a fixed simulated rate whether
    or not the cluster is keeping up, retrying nothing."""

    def __init__(self, cluster, scheduler, monitor, seed: str,
                 total_ops: int, rate: float, key_space: int):
        import random
        self.cluster = cluster
        self.scheduler = scheduler
        self.monitor = monitor
        self.rng = random.Random(f"{seed}:client")
        self.total_ops = total_ops
        self.rate = rate
        self.key_space = key_space
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self._due = 0.0
        self._leader = None

    def start(self) -> None:
        self.scheduler.schedule(_WARMUP, self._tick)

    def _find_leader(self):
        node = self._leader
        if node is not None and node.started and node.role is LEADER:
            return node
        self._leader = None
        for node in self.cluster.nodes.values():
            if node.role is LEADER and node.started:
                self._leader = node
                return node
        return None

    def _tick(self) -> None:
        self._due += self.rate * _TICK
        leader = self._find_leader()
        while self._due >= 1.0 and self.submitted < self.total_ops:
            self._due -= 1.0
            op_id = self.submitted
            self.submitted += 1
            key = self.rng.randrange(self.key_space)
            value = self.rng.randrange(1 << 31)
            if leader is not None and leader.client_request(op_id, key, value):
                self.accepted += 1
            else:
                self.rejected += 1
                leader = self._find_leader()
        if self.submitted < self.total_ops:
            self.scheduler.schedule(_TICK, self._tick)

    @property
    def done(self) -> bool:
        return self.submitted >= self.total_ops


def run_shard(config: SoakConfig, index: int,
              emit_trace: bool = False) -> Dict[str, Any]:
    """Execute one simulation shard to completion; pure virtual time."""
    seed = config.shard_seed(index)
    ops = config.shard_ops()[index]
    kv_config = SimRaftKvConfig(
        seed=seed,
        bug_skip_apply=(config.bug == "bug_skip_apply"),
    )
    scheduler = SimScheduler(seed)
    cluster = make_sim_raftkv_cluster(kv_config, scheduler)
    monitor = SoakMonitor(ops, checkpoint_every=config.checkpoint_every,
                          clock=scheduler.clock)
    cluster.observer = monitor
    generator = _Generator(cluster, scheduler, monitor, seed,
                           ops, config.rate, config.key_space)

    submit_end = _WARMUP + ops / config.rate
    schedule: List[Dict[str, Any]] = []
    if config.schedule is not None:
        schedule = config.schedule[index]
    elif config.faults:
        schedule = build_fault_schedule(seed, submit_end, cluster.node_ids)

    emit = emit_trace and TRACER.enabled
    if emit:
        TRACER.set_sim_clock(scheduler.clock)
    try:
        cluster.deploy()
        generator.start()
        apply_schedule(cluster, scheduler, schedule)

        snapshots: List[Dict[str, Any]] = []
        last_applied_events = 0
        drain_windows = 0
        while True:
            scheduler.run_for(config.snapshot_every)
            progressed = monitor.applied_events > last_applied_events
            last_applied_events = monitor.applied_events
            monitor.check_stall(
                progressed, _pending_work(cluster),
                disrupted=cluster.network.disrupted,
                all_up=len(cluster.nodes) == len(cluster.node_ids))
            row = {
                "sim_time": round(scheduler.now(), 6),
                "submitted": generator.submitted,
                "accepted": generator.accepted,
                "rejected": generator.rejected,
                "acked": monitor.acked,
                "applied_events": monitor.applied_events,
                "divergences": monitor.total_divergences,
            }
            snapshots.append(row)
            if emit:
                TRACER.emit("soak.snapshot", shard=index, **row)
            if generator.done and scheduler.now() >= submit_end:
                if not progressed and not cluster.network.disrupted:
                    break
                drain_windows += 1
                if drain_windows >= _MAX_DRAIN_WINDOWS:
                    break

        final = {}
        for node_id in sorted(cluster.node_ids):
            node = cluster.nodes.get(node_id)
            if node is None:
                final[node_id] = {"up": False}
                continue
            final[node_id] = {
                "up": True,
                "fp": f"{node.kv_fp:016x}",
                "applied": node.last_applied,
                "commit": node.commit_index,
                "log": len(node.log),
                "term": node.current_term,
            }
        result = {
            "shard": index,
            "seed": seed,
            "ops": ops,
            "sim_time": round(scheduler.now(), 6),
            "events_dispatched": scheduler.dispatched,
            "messages_sent": cluster.network.sent_count,
            "submitted": generator.submitted,
            "accepted": generator.accepted,
            "rejected": generator.rejected,
            "acked": monitor.acked,
            "applied_events": monitor.applied_events,
            "final": final,
            "divergences": monitor.counts_sorted(),
            "divergence_events": monitor.divergences,
            "fault_schedule": schedule,
            "snapshots": snapshots,
        }
        if emit:
            TRACER.emit("soak.shard", shard=index, seed=seed, ops=ops,
                        sim_time=result["sim_time"],
                        acked=monitor.acked,
                        divergences=monitor.total_divergences)
        return result
    finally:
        if emit:
            TRACER.set_sim_clock(None)
        if cluster.deployed:
            cluster.shutdown()


def _pending_work(cluster) -> int:
    """Entries the cluster should still commit or apply, measured from
    the acting leader: its own uncommitted tail plus every live node's
    apply lag behind its commit index.  Dead tails on deposed leaders
    (entries a newer term will truncate) are *not* pending — those ops
    count as lost-unacked in the report, never as a stall (that is
    normal Raft, not a liveness failure).  A quiet, healed,
    fully-up cluster with no leader at all counts as pending work too:
    an election is overdue."""
    leaders = [n for n in cluster.nodes.values() if n.role == LEADER]
    if not leaders:
        return 1
    leader = max(leaders, key=lambda n: n.current_term)
    pending = max(0, len(leader.log) - leader.commit_index)
    for node in cluster.nodes.values():
        pending += max(0, leader.commit_index - node.last_applied)
    return pending


def run_soak(config: SoakConfig) -> List[Dict[str, Any]]:
    """Run every shard (possibly in parallel) and return their reports
    in shard order — identical bytes for any worker count."""
    with TRACER.span("soak.run", target=config.target, ops=config.ops,
                     seed=config.seed, shards=config.shards,
                     workers=config.workers, faults=config.faults):
        workers = min(config.workers, config.shards)
        if parallel_useful(workers, config.shards, "shards"):
            results, _busy = run_indexed(
                lambda index: run_shard(config, index, emit_trace=False),
                config.shards, workers)
        else:
            results = [run_shard(config, index, emit_trace=True)
                       for index in range(config.shards)]
        if TRACER.enabled:
            for shard in results:
                for event in shard["divergence_events"]:
                    TRACER.emit("soak.divergence", shard=shard["shard"],
                                **event)
            totals = _totals(results)
            TRACER.emit("soak.done", target=config.target,
                        seed=config.seed, shards=config.shards, **totals)
        METRICS.counter("soak.ops_submitted").inc(
            sum(s["submitted"] for s in results))
        METRICS.counter("soak.ops_acked").inc(
            sum(s["acked"] for s in results))
        METRICS.counter("soak.divergences").inc(
            sum(sum(s["divergences"].values()) for s in results))
        return results
