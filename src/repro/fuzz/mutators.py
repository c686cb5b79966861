"""Schedule mutation: the shrink vocabulary run in reverse, plus splices.

The shrinker (:mod:`repro.faults.shrink`) minimizes plans by dropping
injections and weakening their parameters.  The fuzzer needs the whole
dial: it **weakens** and **drops** to escape over-constrained
schedules, **strengthens** (the weakening dimensions inverted: larger
delay counts, later heals, wider partition groups), **transposes**
chaos injections to new step boundaries, and — the model-guided part —
**splices** new injections aimed at uncovered regions of the canonical
graph: a modeled splice targets a verified fault edge whose fingerprint
the corpus has never visited, and a spliced tail prefers uncovered
continuations.

Every mutation is legality-checked with
:func:`repro.faults.legality.plan_violations` before it is returned, so
the planner's k-budget rules (one disruptive window, one
partition-family injection per case) survive arbitrarily long mutation
chains.  All randomness comes from the caller's seeded stream.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from ..core.mapping.kinds import TriggerKind
from ..core.mapping.registry import SpecMapping
from ..core.testgen.testcase import TestCase, TestSuite
from ..faults.kinds import (
    RULES, ChaosKind, InjectionMode, admits, draw_params, step_bounds,
    stronger_variants, weaker_variants,
)
from ..faults.legality import plan_violations
from ..faults.plan import EdgeRef, FaultInjection, FaultPlan
from ..tlaplus.graph import StateGraph
from .fingerprint import GraphIndex, case_coverage

__all__ = ["MUTATORS", "Mutator"]

#: (name, weight) — coverage-seeking ops carry the heavier dice
MUTATORS: Tuple[Tuple[str, int], ...] = (
    ("splice_modeled", 3),
    ("extend_tail", 3),
    ("splice_chaos", 2),
    ("strengthen", 2),
    ("transpose", 2),
    ("weaken", 1),
    ("drop", 1),
)
_ATTEMPTS = 8   # draws per mutate() before it gives up with a noop


class Mutator:
    """Bound mutation context: one campaign's graph/suite/coverage view."""

    def __init__(self, graph: StateGraph, index: GraphIndex,
                 suite: TestSuite, mapping: SpecMapping,
                 node_ids: Sequence[str], *, chaos: bool = False,
                 max_faults: int = 1):
        self.graph = graph
        self.index = index
        self.suite = suite
        self.mapping = mapping
        self.node_ids = list(node_ids)
        self.chaos = chaos
        self.max_faults = max_faults
        self.fault_names = {
            name for name, action in mapping.actions.items()
            if action.trigger is TriggerKind.FAULT}
        # state fingerprints along each base case's path, for bug bias
        self._case_states = {
            case.case_id: case_coverage(case, index=index).states
            for case in suite}

    # -- entry point -----------------------------------------------------------
    def mutate(self, plan: FaultPlan, rng: random.Random,
               covered_edges: Set[int], bias_anchors: Set[int] = frozenset()
               ) -> Tuple[str, Optional[FaultPlan]]:
        """One legal mutation of ``plan``, or ``("noop", None)``.

        Draws an op from the weighted table, applies it, and keeps the
        result only if it passes the full legality check; bounded
        retries keep the stream deterministic even when an op has no
        legal move (e.g. modeled splices on a spec without fault
        actions).
        """
        for _ in range(_ATTEMPTS):
            op = self._pick_op(rng)
            candidate = self._apply(op, plan, rng, covered_edges,
                                    bias_anchors)
            if candidate is None:
                continue
            if plan_violations(candidate, self.suite, graph=self.graph,
                               node_ids=self.node_ids,
                               max_faults_per_case=self.max_faults):
                continue
            return op, candidate
        return "noop", None

    def _pick_op(self, rng: random.Random) -> str:
        total = sum(weight for _, weight in MUTATORS)
        roll = rng.randrange(total)
        for name, weight in MUTATORS:
            roll -= weight
            if roll < 0:
                return name
        return MUTATORS[-1][0]  # pragma: no cover - roll < total always

    def _apply(self, op: str, plan: FaultPlan, rng: random.Random,
               covered_edges: Set[int],
               bias_anchors: Set[int]) -> Optional[FaultPlan]:
        if op == "drop":
            return self._drop(plan, rng)
        if op == "transpose":
            return self._transpose(plan, rng)
        if op == "weaken":
            return self._weaken(plan, rng)
        if op == "strengthen":
            return self._strengthen(plan, rng)
        if op == "extend_tail":
            return self._extend_tail(plan, rng, covered_edges)
        if op == "splice_modeled":
            return self._splice_modeled(plan, rng, covered_edges,
                                        bias_anchors)
        return self._splice_chaos(plan, rng, bias_anchors)

    # -- the shrink vocabulary, both directions --------------------------------
    def _drop(self, plan: FaultPlan,
              rng: random.Random) -> Optional[FaultPlan]:
        if not plan.injections:
            return None
        victim = rng.randrange(len(plan.injections))
        return plan.subset([injection for position, injection
                            in enumerate(plan.injections)
                            if position != victim])

    def _weaken(self, plan: FaultPlan,
                rng: random.Random) -> Optional[FaultPlan]:
        choices = [(position, variants) for position, injection
                   in enumerate(plan.injections)
                   for variants in [weaker_variants(injection)] if variants]
        if not choices:
            return None
        position, variants = choices[rng.randrange(len(choices))]
        return self._replace_at(plan, position,
                                variants[rng.randrange(len(variants))])

    def _strengthen(self, plan: FaultPlan,
                    rng: random.Random) -> Optional[FaultPlan]:
        choices = [(position, variants) for position, injection
                   in enumerate(plan.injections)
                   for variants in [stronger_variants(injection,
                                                      self.node_ids)]
                   if variants]
        if not choices:
            return None
        position, variants = choices[rng.randrange(len(choices))]
        return self._replace_at(plan, position,
                                variants[rng.randrange(len(variants))])

    def _transpose(self, plan: FaultPlan,
                   rng: random.Random) -> Optional[FaultPlan]:
        """Move one chaos injection to a different legal step boundary."""
        by_id = {case.case_id: case for case in self.suite}
        chaos = [(position, injection) for position, injection
                 in enumerate(plan.injections)
                 if injection.mode is InjectionMode.CHAOS
                 and injection.case_id in by_id]
        if not chaos:
            return None
        position, injection = chaos[rng.randrange(len(chaos))]
        case = by_id[injection.case_id]
        if len(case.steps) < 2:
            return None
        step = rng.randrange(*step_bounds(ChaosKind(injection.kind),
                                          len(case.steps)))
        moved = FaultInjection(injection.mode, injection.kind,
                               injection.case_id, step,
                               params=injection.params)
        return self._replace_at(plan, position, moved)

    # -- model-guided splices --------------------------------------------------
    def _extend_tail(self, plan: FaultPlan, rng: random.Random,
                     covered_edges: Set[int]) -> Optional[FaultPlan]:
        """Grow a modeled splice's tail one verified edge, preferring an
        uncovered continuation (non-fault edges only: the k-budget is
        spent on the spliced fault chain, not its tail)."""
        modeled = [(position, injection) for position, injection
                   in enumerate(plan.injections)
                   if injection.mode is InjectionMode.MODELED]
        if not modeled:
            return None
        position, injection = modeled[rng.randrange(len(modeled))]
        end = injection.tail[-1].dst if injection.tail else injection.edge.dst
        pool = [edge for edge in self.graph.out_edges(end)
                if edge.label.name not in self.fault_names]
        if not pool:
            return None
        uncovered = [edge for edge in pool
                     if self.index.edge_fp(edge) not in covered_edges]
        pick_from = uncovered or pool
        edge = pick_from[rng.randrange(len(pick_from))]
        grown = injection.replace(tail=list(injection.tail)
                                  + [EdgeRef(edge.src, edge.dst, edge.label)])
        return self._replace_at(plan, position, grown)

    def _splice_modeled(self, plan: FaultPlan, rng: random.Random,
                        covered_edges: Set[int],
                        bias_anchors: Set[int]) -> Optional[FaultPlan]:
        """Splice a fresh verified fault edge, aimed at uncovered ones."""
        candidates: List[Tuple[TestCase, int, object, bool]] = []
        for case in self.suite:
            source_ids = case.node_ids()
            if any(sid < 0 for sid in source_ids):
                continue
            for splice_at, sid in enumerate(source_ids):
                for edge in self.graph.out_edges(sid):
                    if edge.label.name not in self.fault_names:
                        continue
                    fresh = self.index.edge_fp(edge) not in covered_edges
                    candidates.append((case, splice_at, edge, fresh))
        if not candidates:
            return None
        pool = self._prefer(candidates, bias_anchors, rng)
        case, splice_at, edge, _fresh = pool[rng.randrange(len(pool))]
        tail = self._guided_tail(edge.dst, rng, covered_edges)
        splice = FaultInjection(
            InjectionMode.MODELED,
            self.mapping.actions[edge.label.name].fault_kind.value,
            case.case_id, splice_at,
            derived_case_id=self._next_case_id(plan),
            edge=EdgeRef(edge.src, edge.dst, edge.label),
            tail=[EdgeRef(e.src, e.dst, e.label) for e in tail])
        return plan.subset(list(plan.injections) + [splice])

    def _splice_chaos(self, plan: FaultPlan, rng: random.Random,
                      bias_anchors: Set[int]) -> Optional[FaultPlan]:
        """Add one chaos injection to a case with k-budget headroom."""
        held = {}
        for injection in plan.injections:
            if injection.mode is InjectionMode.CHAOS:
                held.setdefault(injection.case_id, []).append(
                    ChaosKind(injection.kind))
        eligible = [case for case in self.suite
                    if len(case.steps) >= 2
                    and len(held.get(case.case_id, ())) < self.max_faults]
        if not eligible:
            return None
        biased = [case for case in eligible
                  if self._case_states.get(case.case_id, set())
                  & bias_anchors]
        pool = biased or eligible
        case = pool[rng.randrange(len(pool))]
        kinds = [kind for kind, rule in RULES.items()
                 if (self.chaos or not rule.disruptive)
                 and admits(kind, held.get(case.case_id, ()),
                            len(self.node_ids))]
        if not kinds:
            return None
        kind = kinds[rng.randrange(len(kinds))]
        step = rng.randrange(*step_bounds(kind, len(case.steps)))
        splice = FaultInjection(InjectionMode.CHAOS, kind.value,
                                case.case_id, step,
                                params=draw_params(kind, self.node_ids, rng))
        return plan.subset(list(plan.injections) + [splice])

    # -- helpers ---------------------------------------------------------------
    def _prefer(self, candidates, bias_anchors: Set[int],
                rng: random.Random):
        """Filter to uncovered-edge candidates, then to bug-biased cases
        — each filter only applies when it leaves something to pick."""
        fresh = [c for c in candidates if c[3]]
        pool = fresh or candidates
        if bias_anchors:
            biased = [c for c in pool
                      if self._case_states.get(c[0].case_id, set())
                      & bias_anchors]
            pool = biased or pool
        return pool

    def _guided_tail(self, start: int, rng: random.Random,
                     covered_edges: Set[int], length: int = 2) -> List:
        """A short verified continuation preferring uncovered non-fault
        edges — the coverage-seeking analogue of the planner's tail."""
        tail = []
        current = start
        for _ in range(length):
            outgoing = self.graph.out_edges(current)
            benign = [e for e in outgoing
                      if e.label.name not in self.fault_names] or outgoing
            if not benign:
                break
            uncovered = [e for e in benign
                         if self.index.edge_fp(e) not in covered_edges]
            pool = uncovered or benign
            edge = pool[rng.randrange(len(pool))]
            tail.append(edge)
            current = edge.dst
        return tail

    def _next_case_id(self, plan: FaultPlan) -> int:
        top = max((case.case_id for case in self.suite), default=-1)
        for injection in plan.modeled():
            if injection.derived_case_id is not None:
                top = max(top, injection.derived_case_id)
        return top + 1

    @staticmethod
    def _replace_at(plan: FaultPlan, position: int,
                    injection: FaultInjection) -> FaultPlan:
        injections = list(plan.injections)
        injections[position] = injection
        return plan.subset(injections)
