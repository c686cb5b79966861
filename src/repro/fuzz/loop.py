"""The fuzz campaign: a budgeted execute → fingerprint → mutate loop.

Each iteration of :func:`fuzz_campaign` executes one
``mocket-fault-plan/1`` schedule through the real
:class:`~repro.faults.runner.FaultRunner`, fingerprints the verified
states/edges the run visited (:func:`~repro.fuzz.fingerprint.run_coverage`),
triages the outcome, and feeds the corpus:

* a schedule is **kept** only if it visited a fingerprint the corpus
  has never seen, or surfaced a new (deduplicated, stably-identified)
  unattributed bug,
* the next schedule is bred from an energy-picked corpus entry via one
  legality-checked mutation (:mod:`repro.fuzz.mutators`), with seed
  selection biased toward past divergences and bug-anchor states.

Determinism: every random decision of run ``i`` draws from
``random.Random(f"{fuzz_seed}:run{i}")`` — string-seeded, so
independent of ``PYTHONHASHSEED`` — and nothing else; the runner's own
nemesis randomness is plan-seeded exactly as in ``mocket faults``.
The global run counter persists in the corpus, so resuming a corpus
with more budget continues the same stream: fuzzing with budget 6
equals budget 3 twice.  Worker counts cannot perturb anything either
— the parallel executor merges case results in case order, and
coverage reads only case content + executed-step counts.

``guided=False`` runs the control arm the benchmark compares against:
the same budget of runs, but every schedule drawn fresh from the
plain seeded planner stream with no coverage feedback — exactly what
``mocket faults run`` does today, measured on the same yardstick.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.mapping.registry import SpecMapping
from ..core.testbed.runner import RunnerConfig
from ..core.testgen.testcase import TestSuite
from ..faults.legality import plan_violations
from ..faults.plan import FaultPlan
from ..faults.planner import apply_plan, plan_faults
from ..faults.runner import FaultConfig, FaultRunner
from ..faults.triage import divergence_id, triage
from ..obs import METRICS, TRACER
from ..tlaplus.graph import StateGraph
from .corpus import Corpus, FuzzError
from .energy import pick_entry
from .fingerprint import GraphIndex, run_coverage
from .mutators import Mutator

__all__ = ["FuzzResult", "fuzz_campaign"]

#: generated seed schedules at the head of a fresh campaign
SEED_SCHEDULES = 2


class FuzzResult:
    """Outcome of one campaign: the corpus plus its trajectory."""

    def __init__(self, corpus: Corpus, trajectory: List[Dict[str, Any]],
                 graph_states: int, graph_edges: int, budget: int,
                 guided: bool):
        self.corpus = corpus
        self.trajectory = trajectory
        self.graph_states = graph_states
        self.graph_edges = graph_edges
        self.budget = budget
        self.guided = guided

    @property
    def bugs(self) -> Dict[str, Dict[str, Any]]:
        return self.corpus.bugs

    @property
    def distinct_states(self) -> int:
        return self.corpus.distinct_states()

    @property
    def distinct_edges(self) -> int:
        return self.corpus.distinct_edges()


def fuzz_campaign(
    graph: StateGraph,
    suite: TestSuite,
    mapping: SpecMapping,
    cluster_factory: Callable,
    node_ids: Sequence[str],
    *,
    budget: int,
    fuzz_seed: str,
    corpus_dir: Optional[str] = None,
    target: str = "",
    chaos: bool = False,
    max_faults: int = 1,
    workers: int = 1,
    guided: bool = True,
    seed_plans: Sequence[FaultPlan] = (),
    runner_config: Optional[RunnerConfig] = None,
    fault_config: Optional[FaultConfig] = None,
) -> FuzzResult:
    """Run ``budget`` schedule executions and return the fed corpus.

    ``suite`` must already be truncated to the base cases the campaign
    should perturb, and ``graph`` must be the *canonicalized* graph the
    suite was generated from.  ``seed_plans`` are imported (executed
    and, if novel, kept) before any generated schedule — the bridge
    from ``mocket faults run`` payloads into a corpus.
    """
    if budget < 1:
        raise FuzzError(f"fuzz budget must be >= 1, got {budget}")
    fuzz_seed = str(fuzz_seed)
    index = GraphIndex(graph)
    from ..engine import canonical_signature

    meta = {
        "target": target,
        "fuzz_seed": fuzz_seed,
        "chaos": chaos,
        "max_faults": max_faults,
        "guided": guided,
        "cases": sorted(case.case_id for case in suite),
        "graph": canonical_signature(graph),
        "nodes": sorted(node_ids),
    }
    corpus = Corpus.open_or_create(corpus_dir, meta)
    mutator = Mutator(graph, index, suite, mapping, node_ids, chaos=chaos,
                      max_faults=max_faults)
    imported = list(seed_plans)
    for position, plan in enumerate(imported):
        problems = plan_violations(plan, suite, graph=graph,
                                   node_ids=node_ids)
        if problems:
            raise FuzzError(f"seed plan #{position} is not legal for "
                            f"this suite: {problems[0]}")

    trajectory: List[Dict[str, Any]] = []
    with TRACER.span("fuzz.campaign", target=target, budget=budget,
                     guided=guided):
        for offset in range(budget):
            run_index = corpus.runs
            rng = random.Random(f"{fuzz_seed}:run{run_index}")
            op, parent_id, plan = _next_schedule(
                run_index, rng, imported, corpus, mutator, graph, suite,
                mapping, node_ids, fuzz_seed, chaos, max_faults, target,
                guided)
            record = _execute(plan, op, parent_id, run_index, graph, suite,
                              mapping, cluster_factory, corpus, index,
                              workers, runner_config, fault_config, guided)
            trajectory.append(record)
    corpus.save()
    if TRACER.enabled:
        TRACER.emit("fuzz.done", runs=corpus.runs,
                    entries=len(corpus.entries),
                    states=corpus.distinct_states(),
                    graph_states=index.num_states,
                    edges=corpus.distinct_edges(),
                    graph_edges=index.num_edges,
                    bugs=len(corpus.bugs), guided=guided, target=target)
    return FuzzResult(corpus, trajectory, index.num_states,
                      index.num_edges, budget, guided)


def _next_schedule(run_index: int, rng: random.Random,
                   imported: List[FaultPlan], corpus: Corpus,
                   mutator: Mutator, graph, suite, mapping, node_ids,
                   fuzz_seed: str, chaos: bool, max_faults: int,
                   target: str, guided: bool):
    """(op, parent_entry_id, plan) for the next run of the campaign."""
    def planned(salt: str) -> FaultPlan:
        return plan_faults(graph, suite, mapping, f"{fuzz_seed}/{salt}",
                           node_ids, chaos=chaos, target=target,
                           max_faults_per_case=max_faults)

    if not guided:
        # control arm: a plain seeded stream, no feedback
        return "unguided", None, planned(f"unguided{run_index}")
    if run_index < len(imported):
        return "import", None, imported[run_index]
    generated = run_index - len(imported)
    if generated < SEED_SCHEDULES or not corpus.entries:
        return "seed", None, planned(f"seed{generated}")
    parent = pick_entry(corpus.entries, corpus.state_hits,
                        corpus.edge_hits, corpus.bug_anchor_fps(), rng)
    op, candidate = mutator.mutate(parent.plan, rng,
                                   set(corpus.edge_hits),
                                   corpus.bug_anchor_fps())
    if candidate is None:
        # no legal mutation found in budgeted attempts: rerun the
        # parent (still deterministic; its rarity decays via the hit
        # counts, so the wheel moves on next round)
        return "rerun", parent.entry_id, parent.plan
    return op, parent.entry_id, candidate


def _execute(plan: FaultPlan, op: str, parent_id: Optional[int],
             run_index: int, graph, suite, mapping, cluster_factory,
             corpus: Corpus, index: GraphIndex, workers: int,
             runner_config, fault_config, guided: bool) -> Dict[str, Any]:
    """Run one schedule, account its coverage, update the corpus."""
    full = apply_plan(suite, graph, plan)
    runner = FaultRunner(mapping, graph, cluster_factory, plan,
                         runner_config, fault_config)
    outcome = runner.run_suite(full, workers=workers)
    payload = triage(outcome, plan)
    coverage = run_coverage(outcome, index)
    new_states, new_edges = corpus.novelty(coverage)

    failure_ids: List[str] = []
    new_bugs: List[str] = []
    for result, failure in zip(outcome.failures, payload["failures"]):
        failure_ids.append(failure["id"])
        if failure["verdict"] != "unattributed":
            continue
        _stable, anchor = divergence_id(result.case, result.divergence)
        if corpus.record_bug(failure["id"], entry=None,
                             kind=failure["kind"],
                             case_id=failure["case_id"], anchor=anchor,
                             headline=failure["headline"]):
            new_bugs.append(failure["id"])

    kept = None
    if guided and (new_states or new_edges or new_bugs) \
            and not corpus.seen_plan(plan):
        kept = corpus.add_entry(plan, op, parent_id, coverage,
                                len(new_states), len(new_edges),
                                sorted(set(failure_ids)))
        for bug_id in new_bugs:
            corpus.bugs[bug_id]["entry"] = kept.entry_id
    corpus.observe(coverage)
    corpus.runs = run_index + 1

    record = {
        "run": run_index,
        "op": op,
        "parent": parent_id,
        "injections": len(plan.injections),
        "kept": kept.entry_id if kept is not None else None,
        "new_states": len(new_states),
        "new_edges": len(new_edges),
        "states": corpus.distinct_states(),
        "edges": corpus.distinct_edges(),
        "divergent": payload["divergent"],
        "unattributed": payload["unattributed"],
        "new_bugs": new_bugs,
        "bugs": len(corpus.bugs),
    }
    if TRACER.enabled:
        TRACER.emit("fuzz.run", **record)
        METRICS.counter("fuzz.runs").inc()
        METRICS.counter("fuzz.new_states").inc(len(new_states))
        METRICS.counter("fuzz.new_edges").inc(len(new_edges))
        if kept is not None:
            METRICS.counter("fuzz.kept").inc()
        for bug_id in new_bugs:
            TRACER.emit("fuzz.bug", id=bug_id, run=run_index,
                        kind=corpus.bugs[bug_id]["kind"],
                        case=corpus.bugs[bug_id]["case_id"])
            METRICS.counter("fuzz.bugs").inc()
    return record
