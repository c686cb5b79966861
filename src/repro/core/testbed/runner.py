"""Controlled testing orchestration (Sections 4.3.2-4.3.3).

:class:`ControlledTester` runs test cases against the system under
test.  For every case it deploys a fresh cluster, checks the initial
state, then walks the action sequence:

* *spontaneous* actions — wait for the matching notification, consume
  its message (for receives), enable it, wait for completion,
* *user requests* — invoke the client script in its own thread, then
  wait for the resulting notification,
* *faults* — run the crash/restart script, operate the drop switch on
  the matching receive, or re-inject the duplicated message.

After each action the state checker compares the runtime state against
the verified state.  At the end of a case, leftover notifications that
match no enabled transition of the final verified state are reported as
unexpected actions.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, List, Optional

from ...obs import METRICS, TRACER
from ...runtime.cluster import Cluster
from ...tlaplus.graph import StateGraph
from ..mapping.kinds import FaultKind, TriggerKind
from ..mapping.registry import ActionMapping, SpecMapping
from ..testgen.testcase import TestCase, TestStep, TestSuite
from .messages import UnknownMessage
from .report import (
    Divergence,
    DivergenceKind,
    SuiteResult,
    TestCaseResult,
    VariableDivergence,
)
from .runtime import MocketRuntime
from .scheduler import Notification
from .statecheck import StateChecker

__all__ = ["RunnerConfig", "ControlledTester"]


class RunnerConfig:
    """Upper bounds for controlled testing.

    Every wait ends as soon as the cluster is quiescent; the three
    durations are only the ceiling for a system whose threads block
    outside a declared park point (``docs/RUNTIME.md`` § Quiescence).
    """

    def __init__(self, match_timeout: float = 2.0, done_timeout: float = 2.0,
                 quiesce_delay: float = 0.05):
        self.match_timeout = match_timeout      # upper bound: wait for a matching notification
        self.done_timeout = done_timeout        # upper bound: wait for an enabled action to finish
        self.quiesce_delay = quiesce_delay      # upper bound: wait for quiescence before the end-of-case check


class ControlledTester:
    """Runs generated test cases against an instrumented system."""

    #: upper bound on a client script's wind-down once its case is torn
    #: down; every hook it could block in has been aborted by then
    REQUEST_JOIN_TIMEOUT = 1.0

    def __init__(self, mapping: SpecMapping, graph: StateGraph,
                 cluster_factory: Callable[[], Cluster],
                 config: Optional[RunnerConfig] = None):
        mapping.validate()
        self.mapping = mapping
        self.graph = graph
        self.cluster_factory = cluster_factory
        self.config = config or RunnerConfig()
        # state-fingerprint cache for traced runs (states are interned
        # in the graph, so keying by the State object amortizes hashing)
        self._fp_cache: dict = {}

    # -- suite ------------------------------------------------------------------
    def run_suite(self, suite: TestSuite, stop_on_divergence: bool = False,
                  max_cases: Optional[int] = None,
                  workers: int = 1) -> SuiteResult:
        if workers != 1:
            # lazy: repro.engine builds on this module
            from ...engine import run_suite_parallel

            return run_suite_parallel(self, suite, workers=workers,
                                      stop_on_divergence=stop_on_divergence,
                                      max_cases=max_cases)
        with TRACER.span("runner.suite", cases=len(suite),
                         graph_states=self.graph.num_states,
                         graph_edges=self.graph.num_edges) as suite_span:
            if TRACER.enabled:
                # pre-register so the table always shows every kind, 0 included
                for kind in DivergenceKind:
                    METRICS.counter(f"divergence.{kind.value}")
            started = time.monotonic()
            results: List[TestCaseResult] = []
            for case in suite:
                if max_cases is not None and len(results) >= max_cases:
                    break
                result = self.run_case(case)
                results.append(result)
                if stop_on_divergence and not result.passed:
                    break
            outcome = SuiteResult(results, time.monotonic() - started)
            suite_span.add(ran=len(results), divergent=len(outcome.failures))
            return outcome

    # -- one case -----------------------------------------------------------------
    def run_case(self, case: TestCase) -> TestCaseResult:
        with TRACER.span("runner.case", case=case.case_id,
                         actions=len(case)) as case_span:
            result = self._run_case(case)
            if TRACER.enabled:
                outcome = ("pass" if result.passed
                           else result.divergence.kind.value)
                case_span.add(outcome=outcome,
                              executed=result.executed_actions)
                METRICS.counter("runner.cases").inc()
                if result.divergence is not None:
                    METRICS.counter(
                        f"divergence.{result.divergence.kind.value}").inc()
                    TRACER.emit("runner.divergence", case=case.case_id,
                                kind=result.divergence.kind.value,
                                step=result.divergence.step_index,
                                action=result.divergence.action)
            return result

    def _run_case(self, case: TestCase) -> TestCaseResult:
        started = time.monotonic()
        phases = {"deploy": 0.0, "steps": 0.0, "check": 0.0, "teardown": 0.0}
        cluster = self.cluster_factory()
        runtime = MocketRuntime(self.mapping, cluster)
        runtime.attach()
        runtime.activate()
        executed = 0
        divergence: Optional[Divergence] = None
        request_threads: List[threading.Thread] = []
        try:
            phase_start = time.monotonic()
            cluster.deploy()
            runtime.snapshot_all()
            checker = StateChecker(self.mapping, cluster.node_ids,
                                   runtime.shadow_cache, runtime.message_sets,
                                   cluster=cluster)
            # check the initial state before the first action (Section 4.3.1)
            initial = checker.compare(case.initial_state)
            phases["deploy"] = time.monotonic() - phase_start
            if initial:
                divergence = Divergence(DivergenceKind.INCONSISTENT_STATE, -1,
                                        variables=initial,
                                        detail="initial state mismatch")
            else:
                phase_start = time.monotonic()
                occurrences: Counter = Counter()
                for index, step in enumerate(case.steps):
                    divergence = self._traced_step(
                        case, index, step, runtime, cluster, checker,
                        occurrences, request_threads,
                    )
                    if divergence is not None:
                        break
                    executed += 1
                phases["steps"] = time.monotonic() - phase_start
                if divergence is None:
                    phase_start = time.monotonic()
                    divergence = self._end_of_case_check(case, runtime, checker)
                    phases["check"] = time.monotonic() - phase_start
        finally:
            phase_start = time.monotonic()
            runtime.deactivate()
            cluster.shutdown()
            for thread in request_threads:
                thread.join(self.REQUEST_JOIN_TIMEOUT)
            phases["teardown"] = time.monotonic() - phase_start
        return TestCaseResult(case, divergence, executed,
                              time.monotonic() - started,
                              phase_seconds=phases)

    def _traced_step(self, case: TestCase, index: int, step: TestStep,
                     runtime: MocketRuntime, cluster: Cluster,
                     checker: StateChecker, occurrences: Counter,
                     request_threads: List[threading.Thread]) -> Optional[Divergence]:
        """One step wrapped in a ``runner.step`` span + wall-time metric."""
        with TRACER.span("runner.step", case=case.case_id, step=index,
                         action=step.label.name,
                         params=dict(step.label.params)) as step_span:
            step_start = time.monotonic()
            divergence = self._execute_step(index, step, runtime, cluster,
                                            checker, occurrences,
                                            request_threads)
            if TRACER.enabled:
                step_span.add(outcome=("ok" if divergence is None
                                       else divergence.kind.value))
                if divergence is None:
                    # the step confirmed a verified transition: record
                    # its stable fingerprints so `trace summarize` (and
                    # the fuzzer) can compute graph coverage offline
                    src_fp, edge_fp, dst_fp = self._step_fingerprints(
                        case, index, step)
                    step_span.add(src_fp=src_fp, edge_fp=edge_fp,
                                  dst_fp=dst_fp)
                METRICS.counter("runner.steps").inc()
                METRICS.histogram("runner.step_seconds").observe(
                    time.monotonic() - step_start)
            return divergence

    def _step_fingerprints(self, case: TestCase, index: int,
                           step: TestStep) -> tuple:
        """Content-anchored (src, edge, dst) fingerprints of one step.

        All three come from :mod:`repro.engine.fingerprint`, as fuzz
        coverage does, so offline consumers can align them with the
        canonical graph regardless of worker count or ``PYTHONHASHSEED``.
        """
        # lazy: repro.engine builds on this module
        from ...engine.fingerprint import edge_fingerprint, fingerprint_state

        def state_fp(state) -> int:
            fp = self._fp_cache.get(state)
            if fp is None:
                fp = fingerprint_state(state)
                self._fp_cache[state] = fp
            return fp

        src_state = (case.initial_state if index == 0
                     else case.steps[index - 1].expected_state)
        src = state_fp(src_state)
        dst = state_fp(step.expected_state)
        edge = edge_fingerprint(src, step.label, dst)
        return f"{src:016x}", f"{edge:016x}", f"{dst:016x}"

    # -- steps ----------------------------------------------------------------------
    def _execute_step(self, index: int, step: TestStep, runtime: MocketRuntime,
                      cluster: Cluster, checker: StateChecker,
                      occurrences: Counter,
                      request_threads: List[threading.Thread]) -> Optional[Divergence]:
        action = self.mapping.action_mapping(step.label.name)
        if action.trigger is TriggerKind.SPONTANEOUS:
            divergence = self._run_spontaneous(index, step, runtime)
        elif action.trigger is TriggerKind.USER_REQUEST:
            divergence = self._run_user_request(index, step, runtime, cluster,
                                                action, occurrences, request_threads)
        else:
            divergence = self._run_fault(index, step, runtime, cluster, action)
        if divergence is not None:
            return divergence
        return self._check_expected(index, step, checker)

    def _check_expected(self, index: int, step: TestStep,
                        checker: StateChecker) -> Optional[Divergence]:
        """Per-step expected-state comparison.  Overridden by the fault
        runner, which relaxes it to end-of-case convergence under
        spec-unmodeled (chaos) injections."""
        mismatches = checker.compare(step.expected_state)
        if mismatches:
            return Divergence(DivergenceKind.INCONSISTENT_STATE, index,
                              action=step.label.name, variables=mismatches)
        return None

    def _run_spontaneous(self, index: int, step: TestStep,
                         runtime: MocketRuntime) -> Optional[Divergence]:
        notification = runtime.scheduler.wait_for_label(
            step.label, self.config.match_timeout
        )
        if notification is None:
            return self._no_match_divergence(index, step, runtime)
        if notification.recv_msg is not None and notification.msg_var is not None:
            try:
                runtime.message_sets.remove(notification.msg_var,
                                            notification.recv_msg)
            except UnknownMessage as exc:
                return Divergence(
                    DivergenceKind.INCONSISTENT_STATE, index,
                    action=step.label.name,
                    variables=[VariableDivergence(exc.variable, "in flight",
                                                  exc.message)],
                    detail="received a message the testbed never saw sent",
                )
        return self._enable_and_wait(index, step, runtime, notification)

    def _run_user_request(self, index: int, step: TestStep,
                          runtime: MocketRuntime, cluster: Cluster,
                          action: ActionMapping, occurrences: Counter,
                          request_threads: List[threading.Thread]) -> Optional[Divergence]:
        occurrences[step.label.name] += 1
        occurrence = occurrences[step.label.name]
        params = dict(step.label.params)

        def script() -> None:
            try:
                action.run(cluster, params, occurrence)
            except Exception:
                pass  # failures surface as missing actions / state mismatches

        # a client-request thread is part of the system under test: it is
        # counted as runnable from before it starts until it parks or exits
        thread = threading.Thread(target=cluster.network.counted(script),
                                  daemon=True,
                                  name=f"request-{step.label.name}-{occurrence}")
        request_threads.append(thread)
        thread.start()
        return self._run_spontaneous(index, step, runtime)

    def _run_fault(self, index: int, step: TestStep, runtime: MocketRuntime,
                   cluster: Cluster, action: ActionMapping) -> Optional[Divergence]:
        kind = action.fault_kind
        if TRACER.enabled:
            TRACER.emit("fault.injected", action=step.label.name,
                        kind=getattr(kind, "value", str(kind)), step=index,
                        params=dict(step.label.params))
            METRICS.counter("fault.injected").inc()
        if kind is FaultKind.CRASH:
            node_id = step.label.params[action.node_param]
            cluster.crash_node(node_id)
            return None
        if kind is FaultKind.RESTART:
            node_id = step.label.params[action.node_param]
            node = cluster.restart_node(node_id)
            runtime.snapshot_node(node)
            return None
        decl = self.mapping.spec.actions[step.label.name]
        message = step.label.params[decl.msg_param]
        if kind is FaultKind.DROP_MESSAGE:
            return self._run_drop(index, step, runtime, action, decl, message)
        if kind is FaultKind.DUPLICATE_MESSAGE:
            action.duplicate(cluster, message)
            runtime.message_sets.add(decl.message_var, message)
            return None
        raise ValueError(f"unsupported fault kind {kind!r}")

    def _run_drop(self, index: int, step: TestStep, runtime: MocketRuntime,
                  action: ActionMapping, decl, message) -> Optional[Divergence]:
        """Operate the drop switch: the matching receive skips its body."""

        def matches(notification: Notification) -> bool:
            if notification.recv_msg != message:
                return False
            return (action.receive_action is None
                    or notification.name == action.receive_action)

        notification = runtime.scheduler.wait_for(matches, self.config.match_timeout)
        if notification is None:
            return self._no_match_divergence(index, step, runtime)
        runtime.message_sets.remove(decl.message_var, message)
        return self._enable_and_wait(index, step, runtime, notification,
                                     directive="drop")

    def _enable_and_wait(self, index: int, step: TestStep,
                         runtime: MocketRuntime, notification: Notification,
                         directive: str = "normal") -> Optional[Divergence]:
        runtime.scheduler.enable(notification, directive)
        if not runtime.scheduler.wait_done(notification,
                                           self.config.done_timeout):
            return Divergence(
                DivergenceKind.MISSING_ACTION, index, action=step.label.name,
                detail="the enabled action never finished",
            )
        return None

    def _no_match_divergence(self, index: int, step: TestStep,
                             runtime: MocketRuntime) -> Divergence:
        """Classify a scheduling timeout (Section 4.3.3).

        If the system produced a notification for the *same action* with
        different parameters, the implementation did something the
        verified state space does not allow: an unexpected action.
        Otherwise the scheduled action simply never happened: missing.
        """
        same_name = runtime.scheduler.pending_with_name(step.label.name)
        pending = [n.summary() for n in runtime.scheduler.pending_snapshot()]
        if same_name:
            return Divergence(
                DivergenceKind.UNEXPECTED_ACTION, index, action=step.label.name,
                pending=pending,
                detail=f"expected {step.label!r}; the system offered "
                       f"{[n.summary() for n in same_name]}",
            )
        return Divergence(DivergenceKind.MISSING_ACTION, index,
                          action=step.label.name, pending=pending)

    def _end_of_case_check(self, case: TestCase, runtime: MocketRuntime,
                           checker: StateChecker) -> Optional[Divergence]:
        """Leftover notifications must match transitions enabled in the
        final verified state; anything else is an unexpected action.

        The leftovers are complete once the cluster is quiescent: every
        thread that could still offer an action has done so and parked.
        ``quiesce_delay`` only bounds that wait — a case that always
        ends on the bound (``timed_out``) has a thread blocking outside
        a park point.
        """
        with TRACER.span("runner.quiesce", case=case.case_id) as span:
            started = time.monotonic()
            settled = runtime.cluster.network.wait_quiescent(
                self.config.quiesce_delay)
            span.add(waited_s=time.monotonic() - started,
                     timed_out=not settled)
        if case.final_id in self.graph.refused_ids:
            # exploration was cut off here (--max-states): the verified
            # enabled set is incomplete, so "not enabled" proves nothing
            return None
        enabled = set(self.graph.enabled_labels(case.final_id))
        pending = runtime.scheduler.pending_snapshot()
        for notification in pending:
            if notification.label() not in enabled:
                return Divergence(
                    DivergenceKind.UNEXPECTED_ACTION, len(case.steps),
                    action=notification.name,
                    pending=[n.summary() for n in pending],
                    detail=f"{notification.summary()} is not enabled in the "
                           f"final verified state s{case.final_id}",
                )
        return None
