"""Static legality checking of fault plans.

The planner only ever *emits* legal plans, but the fuzzer *mutates*
them and ``mocket faults replay|shrink`` read them from disk, so
legality needs to be checkable after the fact.  :func:`plan_violations`
checks the rules the planner follows, read from the rule table it
shares with the planner, the shrinker and the fuzz mutators
(:data:`repro.faults.kinds.RULES`):

* at most one **disruptive** and at most one **partition-family**
  injection per case,
* chaos step indices inside :func:`~repro.faults.kinds.step_bounds`,
* each kind's required parameters, naming cluster nodes,
* modeled splices must be real graph paths: the spliced edge leaves
  the state the base case reaches at the splice position, the tail is
  contiguous, and the derived case id collides with nothing,
* with ``max_faults_per_case=k``: at most ``k`` chaos injections per
  case (at ``k=1`` a single disruptive window may ride on top of the
  base transparent injection — the legacy ``--chaos`` shape), and at
  most ``k`` fault edges per modeled splice chain.

An empty return value means the plan is executable by
:class:`~repro.faults.runner.FaultRunner` under exactly the guarantees
the planner gives its own output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.testgen.testcase import TestSuite
from ..tlaplus.graph import StateGraph
from .kinds import FAMILIES, RULES, ChaosKind, InjectionMode, step_bounds
from .plan import FaultInjection, FaultPlan

__all__ = ["plan_violations", "plan_is_legal"]


def plan_is_legal(plan: FaultPlan, suite: TestSuite,
                  graph: Optional[StateGraph] = None,
                  node_ids: Optional[Sequence[str]] = None,
                  max_faults_per_case: Optional[int] = None) -> bool:
    """True when :func:`plan_violations` finds nothing."""
    return not plan_violations(plan, suite, graph=graph, node_ids=node_ids,
                               max_faults_per_case=max_faults_per_case)


def plan_violations(plan: FaultPlan, suite: TestSuite,
                    graph: Optional[StateGraph] = None,
                    node_ids: Optional[Sequence[str]] = None,
                    max_faults_per_case: Optional[int] = None) -> List[str]:
    """Every way ``plan`` breaks the planner's legality rules.

    ``graph`` enables edge-resolution checks for modeled splices;
    ``node_ids`` enables parameter checks (isolate/node/group/src/dst
    must name cluster nodes); both default to the structural checks
    only.  Returns a sorted list of human-readable violations — empty
    means legal.
    """
    problems: List[str] = []
    by_id = {case.case_id: case for case in suite}
    used_ids = set(by_id)
    node_set = set(node_ids) if node_ids is not None else None

    held: Dict[int, List[ChaosKind]] = {}
    derived_seen: Dict[int, int] = {}

    for index, injection in enumerate(plan.injections):
        where = f"injection #{index} ({injection.kind})"
        if injection.mode is InjectionMode.MODELED:
            problems.extend(_modeled_violations(
                injection, where, by_id, used_ids, derived_seen, graph,
                max_faults_per_case))
            continue
        # -- chaos ------------------------------------------------------------
        try:
            kind = ChaosKind(injection.kind)
        except ValueError:
            problems.append(f"{where}: unknown chaos kind")
            continue
        case = by_id.get(injection.case_id)
        if case is None:
            problems.append(f"{where}: unknown case #{injection.case_id}")
            continue
        if len(case.steps) < 2:
            problems.append(f"{where}: case #{case.case_id} is too short "
                            f"for chaos ({len(case.steps)} steps)")
            continue
        low, high = step_bounds(kind, len(case.steps))
        if not low <= injection.step_index < high:
            problems.append(
                f"{where}: step {injection.step_index} outside "
                f"[{low}, {high - 1}] for case #{case.case_id}")
        held.setdefault(case.case_id, []).append(kind)
        problems.extend(_param_violations(injection, kind, where, node_set))

    # the per-case caps of the rule table, one family at a time
    for family in FAMILIES:
        for case_id, kinds in sorted(held.items()):
            count = sum(family in RULES[kind].families for kind in kinds)
            if count > 1:
                problems.append(f"case #{case_id}: {count} {family} "
                                f"injections (at most 1 per case)")
    if max_faults_per_case is not None:
        for case_id, kinds in sorted(held.items()):
            allowed = max_faults_per_case
            if max_faults_per_case == 1 and any(RULES[kind].disruptive
                                                for kind in kinds):
                # the legacy k=1 shape: under --chaos the single
                # disruptive window rides on top of the base transparent
                # injection (keeps k=1 plans byte-identical to pre-k
                # plan files; at k>=2 the window consumes a k slot)
                allowed += 1
            if len(kinds) > allowed:
                problems.append(
                    f"case #{case_id}: {len(kinds)} chaos injections exceed "
                    f"the k-budget ({max_faults_per_case})")
    return problems


def _modeled_violations(injection: FaultInjection, where: str, by_id,
                        used_ids, derived_seen: Dict[int, int],
                        graph: Optional[StateGraph],
                        max_faults_per_case: Optional[int]) -> List[str]:
    problems: List[str] = []
    base = by_id.get(injection.case_id)
    if base is None:
        problems.append(f"{where}: unknown base case #{injection.case_id}")
        return problems
    if injection.edge is None:
        problems.append(f"{where}: modeled splice has no edge")
        return problems
    if not 0 <= injection.step_index <= len(base.steps):
        problems.append(f"{where}: splice position {injection.step_index} "
                        f"outside [0, {len(base.steps)}]")
        return problems
    # the spliced edge must leave the state the base path reaches at
    # the splice position
    source_ids = base.node_ids()
    expected_src = source_ids[injection.step_index]
    if expected_src >= 0 and injection.edge.src != expected_src:
        problems.append(
            f"{where}: edge leaves s{injection.edge.src} but the base "
            f"path is at s{expected_src} at position {injection.step_index}")
    previous = injection.edge.dst
    for position, ref in enumerate(injection.tail):
        if ref.src != previous:
            problems.append(f"{where}: tail is not contiguous at "
                            f"position {position} (s{ref.src} after "
                            f"s{previous})")
            break
        previous = ref.dst
    if graph is not None:
        for ref in [injection.edge] + list(injection.tail):
            if graph.edge_between(ref.src, ref.dst, ref.label) is None:
                problems.append(f"{where}: edge s{ref.src} "
                                f"--{ref.label!r}--> s{ref.dst} is not in "
                                f"the graph")
    if injection.derived_case_id is None:
        problems.append(f"{where}: modeled splice has no derived case id")
    else:
        if injection.derived_case_id in used_ids:
            problems.append(f"{where}: derived case id "
                            f"#{injection.derived_case_id} collides with a "
                            f"suite case")
        seen = derived_seen.get(injection.derived_case_id, 0)
        if seen:
            problems.append(f"{where}: derived case id "
                            f"#{injection.derived_case_id} used twice")
        derived_seen[injection.derived_case_id] = seen + 1
    if graph is not None and max_faults_per_case is not None:
        fault_names = _fault_edge_names(injection, graph)
        if fault_names > max_faults_per_case:
            problems.append(f"{where}: {fault_names} fault edges exceed "
                            f"the k-budget ({max_faults_per_case})")
    return problems


def _fault_edge_names(injection: FaultInjection,
                      graph: StateGraph) -> int:
    """Fault edges in the splice chain: the spliced edge plus the tail
    edges sharing its action name (restart chains).  Without a mapping
    the other fault actions have no name, so this is a lower bound."""
    fault_like = {injection.edge.label.name}
    return 1 + sum(1 for ref in injection.tail
                   if ref.label.name in fault_like)


def _param_violations(injection: FaultInjection, kind: ChaosKind,
                      where: str, node_set) -> List[str]:
    problems: List[str] = []
    params = injection.params
    for key in RULES[kind].params:
        if key not in params:
            problems.append(f"{where}: missing parameter {key!r}")
            return problems
    for key in ("count", "heal_after"):
        value = params.get(key)
        if value is not None and (not isinstance(value, int) or value < 1):
            problems.append(f"{where}: {key} must be a positive int")
    if node_set is None:
        return problems
    for key in ("isolate", "node", "src", "dst"):
        value = params.get(key)
        if value is not None and value not in node_set:
            problems.append(f"{where}: {key}={value!r} is not a cluster "
                            f"node")
    group = params.get("group")
    if group is not None:
        unknown = [n for n in group if n not in node_set]
        if unknown:
            problems.append(f"{where}: group members {unknown!r} are not "
                            f"cluster nodes")
        if len(group) >= len(node_set):
            problems.append(f"{where}: group must leave at least one node "
                            f"outside the partition")
    if "src" in RULES[kind].params:
        if params.get("src") == params.get("dst") and len(node_set) > 1:
            problems.append(f"{where}: src and dst must differ")
    return problems
