"""Deriving fault plans from the verified state graph.

``plan_faults`` is pure and seeded: the same ``(graph, suite, mapping,
seed)`` always yields the same plan, byte-identical once serialized.
It runs in the master process *before* cases are dispatched to workers,
so ``--workers N`` cannot perturb planning.

Two families of injection points:

* **modeled** — wherever a test-case path visits a state with an
  outgoing fault-action edge (``Restart``, ``DropMessage``,
  ``DuplicateMessage``), the planner may splice that edge in: prefix of
  the base case, then the fault edge, then a short verified tail.  The
  derived case is appended to the suite with a fresh id; because it is
  still a path of the state graph, per-step checking stays sound.
  Kinds are chosen round-robin (least-used first) so coverage spreads
  across every fault action the spec offers.
* **chaos** — spec-unmodeled nemesis operations placed by seeded dice:
  every eligible base case gets one *transparent* injection
  (partition / reorder, alternating), and with ``chaos=True`` every
  other case additionally gets a *disruptive* one (bounce / crash,
  alternating), which switches that case to convergence-mode checking.

With ``max_faults_per_case=k`` (k > 1) modeled splices may chain
several fault edges inside one derived case, and each chaos-eligible
case fills its ``k``-injection budget: under ``chaos`` one slot is a
disruptive window (corruption on odd cases), the rest are kinds from
the wider vocabulary that the rule table (:mod:`repro.faults.kinds`)
admits next to what the case already holds.

``k == 1`` consumes the seeded dice exactly as earlier releases did, so
existing plans stay byte-identical.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.mapping.kinds import TriggerKind
from ..core.mapping.registry import SpecMapping
from ..core.testgen.testcase import TestCase, TestSuite
from ..tlaplus.graph import Edge, StateGraph
from .kinds import (
    ChaosKind, InjectionMode, admits, draw_params, step_bounds,
)
from .plan import EdgeRef, FaultInjection, FaultPlan

__all__ = ["plan_faults", "apply_plan"]

_BENIGN_CYCLE = (ChaosKind.PARTITION, ChaosKind.REORDER)
_DISRUPTIVE_CYCLE = (ChaosKind.BOUNCE, ChaosKind.CRASH)
# the wider vocabulary, reachable only via max_faults_per_case > 1 so
# existing single-fault plans stay byte-identical
_EXTRA_CYCLE = (ChaosKind.LINK_CUT, ChaosKind.DELAY,
                ChaosKind.PARTIAL_PARTITION, ChaosKind.REORDER)


def _case_rng(seed: str, case_id: int, salt: str = "") -> random.Random:
    # string seeds hash via sha512 inside random.Random: stable across
    # processes and independent of PYTHONHASHSEED
    return random.Random(f"{seed}:{case_id}:{salt}")


def plan_faults(
    graph: StateGraph,
    suite: TestSuite,
    mapping: SpecMapping,
    seed: str,
    node_ids: Sequence[str],
    chaos: bool = False,
    tail_length: int = 2,
    max_modeled: Optional[int] = None,
    target: str = "",
    max_faults_per_case: int = 1,
) -> FaultPlan:
    """Build a deterministic :class:`FaultPlan` for ``suite``."""
    if max_faults_per_case < 1:
        raise ValueError(f"max_faults_per_case must be >= 1, "
                         f"got {max_faults_per_case}")
    seed = str(seed)
    fault_names = {name for name, action in mapping.actions.items()
                   if action.trigger is TriggerKind.FAULT}
    injections: List[FaultInjection] = []
    kind_use: Dict[str, int] = {}
    next_id = max((case.case_id for case in suite), default=-1) + 1

    # -- modeled splices -----------------------------------------------------
    for case in suite:
        if max_modeled is not None and len(injections) >= max_modeled:
            break
        chosen = _choose_modeled(graph, case, mapping, fault_names,
                                 kind_use, _case_rng(seed, case.case_id))
        if chosen is None:
            continue
        position, edge, kind = chosen
        kind_use[kind] = kind_use.get(kind, 0) + 1
        tail = _choose_tail(graph, edge.dst, fault_names, tail_length,
                            _case_rng(seed, case.case_id, "tail"))
        # with a multi-fault budget, chain further verified fault edges
        # (each with its own short tail) into the same derived case —
        # the whole chain is still a path of the graph, so per-step
        # checking stays exact
        for chain in range(2, max_faults_per_case + 1):
            end = tail[-1].dst if tail else edge.dst
            rng = _case_rng(seed, case.case_id, f"chain{chain}")
            options = [e for e in graph.out_edges(end)
                       if e.label.name in fault_names]
            if not options:
                break
            extra = options[rng.randrange(len(options))]
            extra_kind = mapping.actions[extra.label.name].fault_kind.value
            kind_use[extra_kind] = kind_use.get(extra_kind, 0) + 1
            tail.append(extra)
            tail.extend(_choose_tail(
                graph, extra.dst, fault_names, tail_length,
                _case_rng(seed, case.case_id, f"tail{chain}")))
        injections.append(FaultInjection(
            InjectionMode.MODELED, kind, case.case_id, position,
            derived_case_id=next_id,
            edge=EdgeRef(edge.src, edge.dst, edge.label),
            tail=[EdgeRef(e.src, e.dst, e.label) for e in tail],
        ))
        next_id += 1

    # -- chaos dice ----------------------------------------------------------
    for index, case in enumerate(suite):
        if len(case.steps) < 2:
            continue
        rng = _case_rng(seed, case.case_id, "chaos")
        held = [_BENIGN_CYCLE[index % len(_BENIGN_CYCLE)]]
        if chaos and index % 2 == 0:
            held.append(_DISRUPTIVE_CYCLE[(index // 2)
                                          % len(_DISRUPTIVE_CYCLE)])
        for kind in held:
            # the base dice draw the node before the step
            params = draw_params(kind, node_ids, rng)
            step = rng.randrange(*step_bounds(kind, len(case.steps)))
            injections.append(FaultInjection(
                InjectionMode.CHAOS, kind.value, case.case_id, step,
                params=params))
        if max_faults_per_case > 1:
            injections.extend(_extra_chaos(
                case, index, held, node_ids, chaos, max_faults_per_case,
                _case_rng(seed, case.case_id, "chaos+")))

    return FaultPlan(seed, injections, chaos=chaos, target=target)


def _extra_chaos(case: TestCase, index: int, held: List[ChaosKind],
                 node_ids: Sequence[str], chaos: bool, budget: int,
                 rng: random.Random) -> List[FaultInjection]:
    """Extra per-case injections from the wide vocabulary (k > 1 only).

    Walks ``_EXTRA_CYCLE`` from a per-case offset so coverage spreads,
    taking the first kind the rule table admits next to the case's
    ``held`` kinds.  With ``chaos=True``, odd-index cases (which the
    base dice leave non-disruptive) trade their last slot for a CORRUPT
    injection — keeping the invariant of at most one disruptive
    injection per case.
    """
    extras: List[FaultInjection] = []
    held = list(held)
    slots = budget - 1
    if chaos:
        # even-index cases already carry the base disruptive injection;
        # odd-index cases reserve the slot for the corrupt below — either
        # way one slot of the k-budget is spent on a disruptive window
        slots -= 1
    for slot in range(slots):
        cycle = [_EXTRA_CYCLE[(index + slot + offset) % len(_EXTRA_CYCLE)]
                 for offset in range(len(_EXTRA_CYCLE))]
        # reorder is always admitted, so the walk always finds a kind
        kind = next(kind for kind in cycle
                    if admits(kind, held, len(node_ids)))
        step = rng.randrange(*step_bounds(kind, len(case.steps)))
        held.append(kind)
        extras.append(FaultInjection(
            InjectionMode.CHAOS, kind.value, case.case_id, step,
            params=draw_params(kind, node_ids, rng)))
    if chaos and index % 2 == 1:
        params = draw_params(ChaosKind.CORRUPT, node_ids, rng)
        step = rng.randrange(*step_bounds(ChaosKind.CORRUPT,
                                          len(case.steps)))
        extras.append(FaultInjection(
            InjectionMode.CHAOS, ChaosKind.CORRUPT.value, case.case_id,
            step, params=params))
    return extras


def _choose_modeled(graph: StateGraph, case: TestCase, mapping: SpecMapping,
                    fault_names, kind_use: Dict[str, int],
                    rng: random.Random) -> Optional[Tuple[int, Edge, str]]:
    """Pick one (position, fault edge, kind) splice point for ``case``."""
    source_ids = case.node_ids()
    if any(sid < 0 for sid in source_ids):
        return None  # suite lacks graph provenance (hand-built steps)
    by_kind: Dict[str, List[Tuple[int, Edge]]] = {}
    for position, sid in enumerate(source_ids):
        for edge in graph.out_edges(sid):
            if edge.label.name not in fault_names:
                continue
            kind = mapping.actions[edge.label.name].fault_kind.value
            by_kind.setdefault(kind, []).append((position, edge))
    if not by_kind:
        return None
    # least-used kind first, name as the deterministic tie-break
    kind = min(by_kind, key=lambda k: (kind_use.get(k, 0), k))
    position, edge = by_kind[kind][rng.randrange(len(by_kind[kind]))]
    return position, edge, kind


def _choose_tail(graph: StateGraph, start: int, fault_names, length: int,
                 rng: random.Random) -> List[Edge]:
    """A short verified continuation after the spliced fault edge,
    preferring non-fault transitions."""
    tail: List[Edge] = []
    current = start
    for _ in range(length):
        outgoing = graph.out_edges(current)
        pool = [e for e in outgoing if e.label.name not in fault_names] or outgoing
        if not pool:
            break
        edge = pool[rng.randrange(len(pool))]
        tail.append(edge)
        current = edge.dst
    return tail


def apply_plan(suite: TestSuite, graph: StateGraph,
               plan: FaultPlan) -> TestSuite:
    """Materialize the plan's modeled splices as appended derived cases.

    Chaos injections need no suite change — the fault runner's nemesis
    applies them at runtime.  Raises :class:`ValueError` when the plan
    references cases or edges the suite/graph does not have (a plan
    replayed against the wrong artifacts).
    """
    cases = list(suite)
    by_id = {case.case_id: case for case in cases}
    for injection in plan.modeled():
        base = by_id.get(injection.case_id)
        if base is None:
            raise ValueError(f"plan references unknown case "
                             f"#{injection.case_id}")
        path: List[Edge] = []
        for step in base.steps[:injection.step_index]:
            path.append(_resolve_edge(graph, step.src_id, step.dst_id,
                                      step.label))
        ref = injection.edge
        path.append(_resolve_edge(graph, ref.src, ref.dst, ref.label))
        for ref in injection.tail:
            path.append(_resolve_edge(graph, ref.src, ref.dst, ref.label))
        cases.append(TestCase.from_edges(injection.derived_case_id, graph,
                                         path))
    return TestSuite(cases, graph=suite.graph,
                     excluded_edges=suite.excluded_edges,
                     uncovered_edges=suite.uncovered_edges)


def _resolve_edge(graph: StateGraph, src: int, dst: int, label) -> Edge:
    edge = graph.edge_between(src, dst, label)
    if edge is None:
        raise ValueError(f"plan references edge {src} --{label!r}--> {dst} "
                         f"not present in the graph")
    return edge
