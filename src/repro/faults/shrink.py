"""Shrinking a failing fault plan to a minimal repro.

When a long chaos run fails, the user is handed a plan with dozens of
injections and no idea which ones mattered.  :func:`shrink_plan` is the
Jepsen/QuickCheck answer: replay candidate sub-plans through the very
same :class:`~repro.faults.runner.FaultRunner` (whose heal-and-re-wait
and convergence check end on quiescence, so a replay paces nothing with
wall time) and keep only what is needed to reproduce the failure.

"Still failing" reuses :func:`~repro.faults.triage.triage` attribution:
a candidate reproduces iff it yields an **unattributed** divergence of
one of the kinds the original plan produced.  Attributed divergences
are the faults working as intended; unattributed ones are the
potential real bugs a minimal repro is worth having for.

The pipeline, in replay-budget order:

1. **scope** — drop every injection aimed at cases that did not fail
   unattributed, and shrink the replayed suite to just the failing
   cases (cases are hermetic: each gets a fresh cluster, so per-case
   replay is sound).  One replay validates the scoped plan still
   fails; if it somehow does not, the shrinker falls back to the full
   artifacts.
2. **independence probe** — replay with *zero* injections.  Because
   triage attributes every divergence at or after an injection to that
   injection, an unattributed failure is very often fault-independent;
   when the empty plan still fails, that proof ("your failure needs no
   faults — here is the bare failing case") *is* the minimal repro and
   the remaining phases are skipped.
3. **ddmin** — classic delta debugging over the injection list:
   try subsets and complements at doubling granularity, keeping any
   candidate that still fails.
4. **parameter shrinking** — for each surviving injection try weaker
   variants one dimension at a time: shorter modeled tails, smaller
   delay counts, smaller partial-partition groups, earlier heals.

Every replay is logged as a TraceEvent-shaped record (``shrink.*``
names), so the JSONL shrink log is directly consumable by
``mocket trace summarize``.  The log is timing-free (``ts`` is the
record index), hence byte-identical run over run — the determinism
guard in ``tests/faults`` relies on this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.mapping.registry import SpecMapping
from ..core.testbed.runner import RunnerConfig
from ..core.testgen.testcase import TestSuite
from ..obs import TRACER
from ..runtime.cluster import Cluster
from ..tlaplus.graph import StateGraph
from .plan import FaultInjection, FaultPlan
from .planner import apply_plan
from .runner import FaultConfig, FaultRunner
from .triage import triage

__all__ = ["ShrinkResult", "shrink_plan"]


class ShrinkResult:
    """Outcome of one shrink run."""

    def __init__(self, minimal: FaultPlan, initial_count: int,
                 replays: int, signature: List[str],
                 fault_independent: bool, converged: bool,
                 log: List[Dict[str, object]]):
        self.minimal = minimal
        self.initial_count = initial_count
        self.final_count = len(minimal.injections)
        self.replays = replays
        self.signature = signature
        self.fault_independent = fault_independent
        # False when the replay budget ran out before reaching a
        # 1-minimal plan; the result is still the best plan seen
        self.converged = converged
        self.log = log

    def summary(self) -> str:
        tag = " (failure is fault-independent)" if self.fault_independent else ""
        status = "" if self.converged else " [budget exhausted]"
        return (f"shrunk {self.initial_count} -> {self.final_count} "
                f"injections in {self.replays} replays"
                f"{status}; reproduces: {', '.join(self.signature)}{tag}")

    def write_log(self, path_or_file) -> None:
        """Write the shrink log as JSONL (TraceEvent-shaped records)."""
        import json

        def dump(handle):
            for record in self.log:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

        if hasattr(path_or_file, "write"):
            dump(path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8") as handle:
                dump(handle)


class _Session:
    """Shared state of one shrink run: replay counter, budget, log."""

    def __init__(self, budget: int):
        self.budget = budget
        self.replays = 0
        self.log: List[Dict[str, object]] = []

    @property
    def exhausted(self) -> bool:
        return self.replays >= self.budget

    def record(self, name: str, **fields) -> None:
        self.log.append({
            "seq": len(self.log),
            "ts": float(len(self.log)),  # timing-free: replayable bytes
            "kind": "shrink",
            "name": name,
            "fields": fields,
        })
        if TRACER.enabled:
            TRACER.emit(name, **fields)


def shrink_plan(
    plan: FaultPlan,
    graph: StateGraph,
    suite: TestSuite,
    mapping: SpecMapping,
    cluster_factory: Callable[[], Cluster],
    runner_config: Optional[RunnerConfig] = None,
    fault_config: Optional[FaultConfig] = None,
    budget: int = 200,
    workers: int = 1,
) -> ShrinkResult:
    """Minimize ``plan`` to the smallest sub-plan that still fails.

    Raises :class:`ValueError` when the plan does not fail (no
    unattributed divergence) — there is nothing to shrink.  ``budget``
    bounds the number of replays; on exhaustion the best plan found so
    far is returned with ``converged=False``.
    """
    if budget < 2:
        raise ValueError(f"shrink budget must be >= 2, got {budget}")
    session = _Session(budget)

    def replay(candidate: FaultPlan, run_suite: TestSuite) -> Dict[str, object]:
        session.replays += 1
        full = apply_plan(run_suite, graph, candidate)
        runner = FaultRunner(mapping, graph, cluster_factory, candidate,
                             runner_config, fault_config)
        outcome = runner.run_suite(full, workers=workers)
        return triage(outcome, candidate)

    def unattributed_kinds(payload) -> List[str]:
        return sorted({f["kind"] for f in payload["failures"]
                       if f["verdict"] == "unattributed"})

    session.record("shrink.start", injections=len(plan.injections),
                   cases=len(suite.cases), budget=budget,
                   seed=plan.seed, target=plan.target)

    # -- baseline ------------------------------------------------------------
    baseline = replay(plan, suite)
    signature = unattributed_kinds(baseline)
    session.record("shrink.test", replay=session.replays,
                   injections=len(plan.injections), phase="baseline",
                   failed=bool(signature), kinds=signature)
    if not signature:
        raise ValueError(
            "plan does not fail: no unattributed divergence to shrink "
            f"({baseline['divergent']} divergent, all attributed)")

    def still_fails(payload) -> bool:
        return any(kind in signature for kind in unattributed_kinds(payload))

    # -- phase 1: scope to the failing cases ---------------------------------
    failing_ids = sorted({f["case_id"] for f in baseline["failures"]
                          if f["verdict"] == "unattributed"})
    scoped_suite = TestSuite(
        [case for case in suite if case.case_id in failing_ids],
        graph=suite.graph, excluded_edges=suite.excluded_edges,
        uncovered_edges=suite.uncovered_edges)
    kept = [i for i in plan.injections if i.case_id in set(failing_ids)]
    current = plan.subset(kept)
    session.record("shrink.reduce", phase="scope",
                   kept=len(kept), dropped=len(plan.injections) - len(kept),
                   cases=failing_ids)
    if len(kept) < len(plan.injections) or len(scoped_suite.cases) < len(suite.cases):
        scoped_check = replay(current, scoped_suite)
        session.record("shrink.test", replay=session.replays,
                       injections=len(kept), phase="scope",
                       failed=still_fails(scoped_check),
                       kinds=unattributed_kinds(scoped_check))
        if not still_fails(scoped_check):
            # cases should be hermetic; if scoping lost the failure,
            # distrust the scope and shrink over the full artifacts
            scoped_suite = suite
            current = plan
            session.record("shrink.reduce", phase="scope-revert",
                           kept=len(plan.injections), dropped=0,
                           cases=[c.case_id for c in suite])

    def fails(injections: Sequence[FaultInjection],
              phase: str = "ddmin") -> bool:
        candidate = plan.subset(list(injections))
        payload = replay(candidate, scoped_suite)
        failed = still_fails(payload)
        session.record("shrink.test", replay=session.replays,
                       injections=len(candidate.injections), phase=phase,
                       failed=failed, kinds=unattributed_kinds(payload))
        return failed

    # -- phase 2: fault-independence probe -----------------------------------
    fault_independent = False
    converged = True
    if current.injections:
        if session.exhausted:
            converged = False
        elif fails((), phase="independence"):
            fault_independent = True
            session.record("shrink.reduce", phase="independence",
                           kept=0, dropped=len(current.injections))
            current = plan.subset([])

    # -- phase 3: ddmin over the injection set -------------------------------
    if current.injections and converged:
        reduced, converged = _ddmin(list(current.injections), fails, session)
        current = plan.subset(reduced)

    # -- phase 4: per-injection parameter shrinking --------------------------
    if current.injections and converged:
        shrunk, converged = _shrink_params(list(current.injections), fails,
                                           session)
        current = plan.subset(shrunk)

    session.record("shrink.done", replays=session.replays,
                   initial=len(plan.injections),
                   final=len(current.injections), signature=signature,
                   fault_independent=fault_independent, converged=converged)
    return ShrinkResult(current, len(plan.injections), session.replays,
                        signature, fault_independent, converged, session.log)


def _ddmin(items: List[FaultInjection], fails, session: _Session):
    """Zeller's ddmin: reduce ``items`` to a 1-minimal failing subset.

    Returns ``(minimal_items, converged)``; ``converged`` is False when
    the replay budget ran out mid-search.
    """
    granularity = 2
    while len(items) >= 2:
        chunks = _split(items, granularity)
        reduced = False
        for candidate in chunks + _complements(items, chunks):
            if session.exhausted:
                return items, False
            if fails(candidate):
                session.record("shrink.reduce", phase="ddmin",
                               kept=len(candidate),
                               dropped=len(items) - len(candidate))
                items = list(candidate)
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(granularity * 2, len(items))
    return items, True


def _split(items: List[FaultInjection], n: int) -> List[List[FaultInjection]]:
    """Split into ``n`` contiguous chunks, sizes as even as possible."""
    chunks, start = [], 0
    for index in range(n):
        size = (len(items) - start) // (n - index)
        if size:
            chunks.append(items[start:start + size])
        start += size
    return chunks


def _complements(items, chunks):
    if len(chunks) < 2:
        return []
    out = []
    for chunk in chunks:
        member = set(map(id, chunk))
        out.append([i for i in items if id(i) not in member])
    return out


def _shrink_params(items: List[FaultInjection], fails, session: _Session):
    """Weaken each surviving injection one dimension at a time.

    Deterministic sweep order (plan order); each accepted weakening
    restarts that injection's dimension list until no variant of any
    injection still fails.
    """
    items = list(items)
    progress = True
    while progress:
        progress = False
        for index in range(len(items)):
            for variant in _weaker_variants(items[index]):
                if session.exhausted:
                    return items, False
                trial = items[:index] + [variant] + items[index + 1:]
                if fails(trial, "params"):
                    session.record("shrink.reduce", phase="params",
                                   kept=len(items), dropped=0,
                                   weakened=variant.summary())
                    items = trial
                    progress = True
                    break
    return items, True


def _weaker_variants(injection: FaultInjection) -> List[FaultInjection]:
    """Strictly weaker single-step variants of one injection."""
    variants: List[FaultInjection] = []
    if injection.tail:
        # modeled splice: drop the last tail edge (shorter repro path)
        variants.append(injection.replace(tail=injection.tail[:-1]))
    params = injection.params
    count = params.get("count")
    if isinstance(count, int) and count > 1:
        variants.append(injection.replace(
            params={**params, "count": count - 1}))
    group = params.get("group")
    if isinstance(group, (list, tuple)) and len(group) > 1:
        variants.append(injection.replace(
            params={**params, "group": list(group)[:-1]}))
    heal_after = params.get("heal_after")
    if isinstance(heal_after, int) and heal_after > 1:
        variants.append(injection.replace(
            params={**params, "heal_after": heal_after - 1}))
    return variants
