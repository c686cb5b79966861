"""Fault-aware controlled testing.

:class:`FaultRunner` extends the controlled tester with a nemesis.  It
executes the same schedules (modeled fault splices are ordinary test
cases by the time they reach it — the planner appended them to the
suite), applies the plan's chaos injections at their step boundaries,
and changes failure handling in two ways:

* **heal and re-wait** — when the cluster goes quiescent without a
  scheduled action while chaos faults have been applied, the runner
  heals every fault and waits once more, until the action matches or
  the cluster goes idle again;
  an injected fault therefore cannot hang a case.  If the re-wait ends
  without the action the case is reported as ``stalled`` (the fourth
  divergence kind) instead of blocking.  Healing holds nothing back,
  so a second re-wait would see the same idle cluster.
* **convergence mode** — once a *disruptive* injection (bounce / crash)
  fires, per-step state equality is meaningless: the node was perturbed
  outside the verified state space.  The runner skips per-step
  comparison and instead demands, at end of case with every fault
  healed and the cluster quiescent, that the implementation has
  re-converged to the final verified state.

Per-case nemesis state is reset at case start inside ``_run_case``, so
the forked workers of :func:`repro.engine.run_suite_parallel` — which
inherit this runner and execute whole cases serially — stay
deterministic for any worker count.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional

from ..core.mapping.kinds import FaultKind, TriggerKind
from ..core.mapping.registry import SpecMapping
from ..core.testbed.report import Divergence, DivergenceKind, TestCaseResult
from ..core.testbed.runner import ControlledTester, RunnerConfig
from ..core.testgen.testcase import TestCase, TestStep
from ..runtime.cluster import Cluster
from ..tlaplus.graph import StateGraph
from .nemesis import Nemesis
from .plan import FaultInjection, FaultPlan

__all__ = ["FaultConfig", "FaultRunner"]


class FaultConfig:
    """Accepted and unread: the convergence check waits for quiescence
    alone (``docs/FAULTS.md``).  Constructible for callers that still
    build one.
    """

    def __init__(self, convergence_timeout: float = 2.0, clock: Any = None):
        self.convergence_timeout = convergence_timeout


class FaultRunner(ControlledTester):
    """A controlled tester that executes a :class:`FaultPlan`."""

    def __init__(self, mapping: SpecMapping, graph: StateGraph,
                 cluster_factory: Callable[[], Cluster], plan: FaultPlan,
                 config: Optional[RunnerConfig] = None,
                 faults: Optional[FaultConfig] = None):
        """``config`` and ``faults`` are accepted and ignored."""
        super().__init__(mapping, graph, cluster_factory)
        self.plan = plan
        # per-case nemesis state; reset at the top of _run_case
        self._nemesis: Optional[Nemesis] = None
        self._pending: List[FaultInjection] = []
        self._case_rng: Optional[random.Random] = None
        self._convergence = False
        self._heal_at: List[int] = []

    # -- case lifecycle ------------------------------------------------------
    def _run_case(self, case: TestCase) -> TestCaseResult:
        self._pending = self.plan.chaos_for(case.case_id)
        self._case_rng = random.Random(
            f"{self.plan.seed}:{case.case_id}:nemesis")
        self._nemesis = None
        self._convergence = False
        self._heal_at = []
        result = super()._run_case(case)
        modeled = [injection.summary() for injection in self.plan.modeled()
                   if injection.derived_case_id == case.case_id]
        applied = list(self._nemesis.applied) if self._nemesis else []
        result.injected_faults = modeled + applied
        return result

    # -- step execution ------------------------------------------------------
    def _execute_step(self, index, step, runtime, cluster, checker,
                      occurrences, request_threads):
        self._apply_due(index, runtime, cluster)
        divergence = super()._execute_step(index, step, runtime, cluster,
                                           checker, occurrences,
                                           request_threads)
        if divergence is None:
            return None
        # A held message can surface as either timeout classification:
        # missing (nothing pending) or unexpected (a same-name
        # notification for a different message is pending).  Both are
        # worth a heal + re-wait once the nemesis has acted.
        retriable = {DivergenceKind.MISSING_ACTION,
                     DivergenceKind.UNEXPECTED_ACTION}
        if (self._nemesis is None or not self._nemesis.applied
                or divergence.kind not in retriable):
            return divergence
        return self._retry_step(index, step, runtime, cluster, checker,
                                divergence)

    def _retry_step(self, index: int, step: TestStep, runtime, cluster,
                    checker, divergence: Divergence) -> Optional[Divergence]:
        """Heal, then re-wait once — never re-running client scripts or
        crash/restart/duplicate effects, which already happened.  The
        re-wait ends on a match or on quiescence, like every wait."""
        action = self.mapping.action_mapping(step.label.name)
        if (action.trigger is TriggerKind.FAULT
                and action.fault_kind is not FaultKind.DROP_MESSAGE):
            return divergence  # only the drop switch involves a wait
        self._nemesis.heal_all()
        if action.trigger is TriggerKind.FAULT:
            retried = self._run_fault(index, step, runtime, cluster, action)
        else:
            retried = self._run_spontaneous(index, step, runtime)
        if retried is None:
            return self._check_expected(index, step, checker)
        if retried.kind is DivergenceKind.UNEXPECTED_ACTION:
            # the offending notification survived the heal: a genuine
            # unexpected action, not a delayed delivery
            return retried
        return Divergence(
            DivergenceKind.STALLED, index, action=step.label.name,
            pending=retried.pending,
            detail=(f"no progress with all faults healed; injected: "
                    f"{'; '.join(self._nemesis.applied)}"),
        )

    # -- checking ------------------------------------------------------------
    def _check_expected(self, index, step, checker):
        if self._convergence:
            return None  # disruptive chaos: deferred to convergence check
        return super()._check_expected(index, step, checker)

    def _end_of_case_check(self, case, runtime, checker):
        # injections placed "after the last step" fire here
        self._apply_due(len(case.steps), runtime, runtime.cluster)
        if self._nemesis is not None:
            self._nemesis.heal_all()
        if self._convergence:
            return self._check_convergence(case, runtime, checker)
        return super()._end_of_case_check(case, runtime, checker)

    def _check_convergence(self, case: TestCase, runtime,
                           checker) -> Optional[Divergence]:
        """Compare against the final verified state once the healed
        cluster is quiescent.  The testbed enables nothing here, so no
        state can change after that."""
        runtime.cluster.network.wait_quiescent("the convergence check")
        mismatches = checker.compare(case.final_state)
        if not mismatches:
            return None
        return Divergence(
            DivergenceKind.INCONSISTENT_STATE, len(case.steps),
            variables=mismatches,
            detail=(f"no re-convergence to final verified state "
                    f"s{case.final_id} once quiescent; injected: "
                    f"{'; '.join(self._nemesis.applied)}"),
        )

    # -- nemesis plumbing ----------------------------------------------------
    def _apply_due(self, index: int, runtime, cluster) -> None:
        # scheduled heals fire first: an injection planned with a
        # ``heal_after`` window releases *everything* currently held
        # (heal is global), then this boundary's injections apply
        if self._heal_at and self._nemesis is not None and any(
                at <= index for at in self._heal_at):
            self._heal_at = [at for at in self._heal_at if at > index]
            self._nemesis.heal_all()
        while self._pending and self._pending[0].step_index <= index:
            injection = self._pending.pop(0)
            if self._nemesis is None:
                self._nemesis = Nemesis(cluster, runtime, self._case_rng,
                                        injection.case_id)
            self._nemesis.apply(injection)
            heal_after = injection.params.get("heal_after")
            if heal_after is not None:
                self._heal_at.append(injection.step_index + int(heal_after))
            if injection.disruptive:
                self._convergence = True
