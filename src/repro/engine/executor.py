"""Parallel test-suite execution with per-case process isolation.

Every case of controlled testing (``mocket test``) deploys a fresh
cluster and is independent of every other, so cases can run in worker
processes: a clean case is CPU-bound and scales with cores, and a case
that waits out a timeout (a seeded bug, a healed fault) overlaps its
wait with the others' work.

Design:

* workers are **forked**, so the tester — whose ``cluster_factory`` is
  usually an unpicklable closure — crosses the process boundary by
  inheritance, never by pickling,
* each worker owns a ``SimpleQueue`` of case *indices* (the suite
  itself is inherited); the master dispatches indices in case order and
  collects :class:`~repro.core.testbed.report.TestCaseResult` objects
  from a shared result queue,
* results are merged **in case order** regardless of completion order,
  so the :class:`SuiteResult` is deterministic for any worker count,
* ``stop_on_divergence`` stops *dispatching* once a failure is
  observed; because dispatch is monotone in case order, every case
  before the first failure has already been dispatched, and truncating
  the merged results at the first failing case reproduces exactly the
  serial stop-early result list,
* a dead worker (crashed cluster process, OOM kill) is detected while
  draining the result queue and surfaces as
  :class:`EngineError` instead of a hang.

Tester contract: ``run_case`` must be self-contained — any per-case
mutable state has to be (re)initialized at case start, because each
worker runs whole cases serially against its own fork-inherited copy
of the tester.  The fault runner leans on this: the
:class:`~repro.faults.FaultPlan` crosses the fork by inheritance
(planned in the master, read-only here) while nemesis state is reset
inside ``_run_case``, so an injected schedule produces the same
divergence report for any worker count.  Results — including
``TestCaseResult.injected_faults`` — are plain attribute objects and
pickle back through the result queue unchanged.

Isolation caveat: per-case spans/metrics recorded *inside* a worker
stay in that worker's process (the observability registries are not
shared memory).  The master still records suite-level metrics
(``engine.cases_per_sec``, ``engine.executor_utilization``) and the
returned results carry full per-case timing.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import traceback
import warnings
from typing import List, Optional

from ..obs import METRICS, TRACER
from ..core.testbed.report import SuiteResult, TestCaseResult
from ..core.testgen.testcase import TestSuite

__all__ = ["EngineError", "EngineFallbackWarning", "fork_available",
           "run_suite_parallel"]


class EngineError(RuntimeError):
    """A worker process died or broke the exchange protocol."""


class EngineFallbackWarning(UserWarning):
    """Parallel workers were requested but process support is missing."""


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _case_worker(tester, cases, task_queue, result_queue, worker_index) -> None:
    """Worker main loop: run dispatched case indices until told to stop."""
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            case_index = message
            started = time.perf_counter()
            result = tester.run_case(cases[case_index])
            result_queue.put(("result", worker_index, case_index, result,
                              time.perf_counter() - started))
    except BaseException:
        result_queue.put(("error", worker_index, traceback.format_exc()))


def run_suite_parallel(
    tester,
    suite: TestSuite,
    workers: int,
    stop_on_divergence: bool = False,
    max_cases: Optional[int] = None,
) -> SuiteResult:
    """Run ``suite`` through ``tester`` with ``workers`` forked processes.

    Semantically equivalent to ``tester.run_suite(...)``: same results,
    same order, same stop-early truncation — only the wall clock
    differs.  Falls back to the serial path when only one worker is
    useful or ``fork`` is unavailable.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cases = list(suite)
    if max_cases is not None:
        cases = cases[:max_cases]
    if workers == 1 or len(cases) <= 1:
        return tester.run_suite(suite, stop_on_divergence=stop_on_divergence,
                                max_cases=max_cases)
    if not fork_available():
        warnings.warn(
            "the 'fork' start method is unavailable on this platform; "
            "running the suite serially", EngineFallbackWarning, stacklevel=2)
        return tester.run_suite(suite, stop_on_divergence=stop_on_divergence,
                                max_cases=max_cases)
    workers = min(workers, len(cases))
    with TRACER.span("engine.suite", cases=len(cases),
                     workers=workers) as suite_span:
        started = time.monotonic()
        outcome = _run_parallel(tester, cases, workers, stop_on_divergence,
                                started)
        elapsed = time.monotonic() - started
        suite_span.add(ran=len(outcome.results),
                       divergent=len(outcome.failures))
        if TRACER.enabled:
            METRICS.set_gauge("engine.executor_workers", workers)
            METRICS.set_gauge(
                "engine.cases_per_sec",
                len(outcome.results) / elapsed if elapsed > 0
                else float(len(outcome.results)))
        return outcome


def _run_parallel(tester, cases, workers: int, stop_on_divergence: bool,
                  started: float) -> SuiteResult:
    context = multiprocessing.get_context("fork")
    result_queue = context.Queue()
    task_queues = [context.SimpleQueue() for _ in range(workers)]
    processes = []
    for index in range(workers):
        process = context.Process(
            target=_case_worker,
            args=(tester, cases, task_queues[index], result_queue, index),
            daemon=True,
            name=f"mocket-case-worker-{index}",
        )
        process.start()
        processes.append(process)

    results: List[Optional[TestCaseResult]] = [None] * len(cases)
    busy_total = 0.0
    try:
        next_case = 0
        # prime every worker with one case, in case order
        for worker_index in range(workers):
            task_queues[worker_index].put(next_case)
            next_case += 1
        outstanding = workers
        dispatching = True
        while outstanding:
            try:
                message = result_queue.get(timeout=1.0)
            except queue_module.Empty:
                dead = [index for index, process in enumerate(processes)
                        if not process.is_alive()]
                if dead:
                    raise EngineError(
                        f"suite worker(s) {dead} died mid-case; "
                        f"{outstanding} case(s) were still outstanding")
                continue
            if message[0] == "error":
                raise EngineError(
                    f"suite worker {message[1]} failed:\n{message[2]}")
            _, worker_index, case_index, result, busy = message
            results[case_index] = result
            busy_total += busy
            outstanding -= 1
            if stop_on_divergence and not result.passed:
                dispatching = False
            if dispatching and next_case < len(cases):
                if not processes[worker_index].is_alive():
                    raise EngineError(
                        f"suite worker {worker_index} died after case "
                        f"{case_index}")
                task_queues[worker_index].put(next_case)
                next_case += 1
                outstanding += 1
    finally:
        for index, process in enumerate(processes):
            if process.is_alive():
                try:
                    task_queues[index].put(None)
                except (OSError, ValueError):
                    pass
        for process in processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        result_queue.close()

    merged = [result for result in results if result is not None]
    if stop_on_divergence:
        # truncate at the first failure in case order — exactly the list
        # the serial stop-early loop would have produced
        truncated = []
        for result in merged:
            truncated.append(result)
            if not result.passed:
                break
        merged = truncated
    elapsed = time.monotonic() - started
    if TRACER.enabled and elapsed > 0:
        METRICS.set_gauge("engine.executor_utilization",
                          busy_total / (elapsed * workers))
    return SuiteResult(merged, elapsed)
