"""Parallel execution of independent, indexed jobs in forked workers.

Two kinds of job run here: test cases (``mocket test`` and the fault
verbs — every case deploys a fresh cluster) and soak shards (each a
complete seeded simulation).  :func:`run_indexed` is the one worker
pool both use:

* workers are **forked**, so a job — usually a closure over an
  unpicklable ``cluster_factory`` — crosses the process boundary by
  inheritance, never by pickling; only results travel back pickled,
* each worker owns a ``SimpleQueue`` of job *indices*; the master
  dispatches indices in order and collects results from a shared
  result queue, merged **in index order** whatever the completion
  order, so the output is deterministic for any worker count,
* a ``stop`` predicate stops *dispatching* once a result matches;
  dispatch is monotone in index order, so every index before the first
  stopping result has already run (``stop_on_divergence`` truncates the
  merged cases there and reproduces the serial stop-early list),
* a worker that raises or dies (a crashed cluster process, an OOM
  kill) surfaces as :class:`EngineError` instead of a hang — except a
  tripped hang guard, re-raised as the same
  :class:`~repro.runtime.network.HangGuardTripped`,
* :func:`parallel_useful` is the one fork fallback: without ``fork``
  it warns (:class:`EngineFallbackWarning`) and the caller runs
  serially.

Tester contract: ``run_case`` must be self-contained — any per-case
mutable state has to be (re)initialized at case start, because each
worker runs whole cases serially against its own fork-inherited copy
of the tester.  The fault runner leans on this: the
:class:`~repro.faults.FaultPlan` crosses the fork by inheritance
(planned in the master, read-only here) while nemesis state is reset
inside ``_run_case``, so an injected schedule produces the same
divergence report for any worker count.

Isolation caveat: spans/metrics recorded *inside* a worker stay in
that worker's process (the observability registries are not shared
memory).  The master still records suite-level metrics
(``engine.cases_per_sec``, ``engine.executor_utilization``) and the
returned results carry full per-case timing.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import traceback
import warnings
from typing import Any, Callable, List, Optional, Tuple

from ..obs import METRICS, TRACER
from ..core.testbed.report import SuiteResult
from ..core.testgen.testcase import TestSuite
from ..runtime.network import HangGuardTripped

__all__ = ["EngineError", "EngineFallbackWarning", "fork_available",
           "parallel_useful", "run_indexed", "run_suite_parallel"]


class EngineError(RuntimeError):
    """A worker process died or broke the exchange protocol."""


class EngineFallbackWarning(UserWarning):
    """Parallel workers were requested but process support is missing."""


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def parallel_useful(workers: int, jobs: int, what: str) -> bool:
    """True when ``jobs`` jobs should fork ``workers`` processes; warns
    (:class:`EngineFallbackWarning`) and returns False when ``fork`` is
    missing, so the caller runs its ``what`` serially."""
    if workers == 1 or jobs <= 1:
        return False
    if not fork_available():
        warnings.warn(
            f"the 'fork' start method is unavailable on this platform; "
            f"running the {what} serially", EngineFallbackWarning,
            stacklevel=3)
        return False
    return True


def _job_worker(job, task_queue, result_queue, worker_index) -> None:
    """Worker main loop: run dispatched job indices until told to stop."""
    try:
        while True:
            index = task_queue.get()
            if index is None:
                break
            started = time.perf_counter()
            result = job(index)
            result_queue.put(("result", worker_index, index, result,
                              time.perf_counter() - started))
    except HangGuardTripped as exc:
        result_queue.put(("hang", worker_index, str(exc)))
    except BaseException:
        result_queue.put(("error", worker_index, traceback.format_exc()))


def run_indexed(job: Callable[[int], Any], count: int, workers: int,
                stop: Optional[Callable[[Any], bool]] = None,
                ) -> Tuple[List[Any], float]:
    """``[job(0), ..., job(count-1)]`` computed by ``workers`` forked
    processes, in index order, plus the workers' summed busy seconds.

    ``job`` crosses the fork by inheritance (closures are fine); its
    results travel back pickled.  Indices are dispatched in order, and
    once ``stop(result)`` holds no further index is dispatched, so the
    list holds every index dispatched before the first stopping result
    (``None`` for indices never run).  A worker that raises or dies
    raises :class:`EngineError` instead of hanging.
    """
    context = multiprocessing.get_context("fork")
    result_queue = context.Queue()
    task_queues = [context.SimpleQueue() for _ in range(workers)]
    processes = []
    for index in range(workers):
        process = context.Process(
            target=_job_worker,
            args=(job, task_queues[index], result_queue, index),
            daemon=True,
            name=f"mocket-worker-{index}",
        )
        process.start()
        processes.append(process)

    results: List[Any] = [None] * count
    busy_total = 0.0
    try:
        next_job = 0
        # prime every worker with one job, in index order
        for worker_index in range(workers):
            task_queues[worker_index].put(next_job)
            next_job += 1
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
                        f"worker(s) {dead} died mid-job; "
                        f"{outstanding} job(s) were still outstanding")
                continue
            if message[0] == "hang":
                raise HangGuardTripped(message[2])
            if message[0] == "error":
                raise EngineError(
                    f"worker {message[1]} failed:\n{message[2]}")
            _, worker_index, job_index, result, busy = message
            results[job_index] = result
            busy_total += busy
            outstanding -= 1
            if stop is not None and stop(result):
                dispatching = False
            if dispatching and next_job < count:
                if not processes[worker_index].is_alive():
                    raise EngineError(
                        f"worker {worker_index} died after job "
                        f"{job_index}")
                task_queues[worker_index].put(next_job)
                next_job += 1
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
    return results, busy_total


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
    if not parallel_useful(workers, len(cases), "suite"):
        return tester.run_suite(suite, stop_on_divergence=stop_on_divergence,
                                max_cases=max_cases)
    workers = min(workers, len(cases))
    with TRACER.span("engine.suite", cases=len(cases),
                     workers=workers) as suite_span:
        started = time.monotonic()
        results, busy_total = run_indexed(
            lambda index: tester.run_case(cases[index]), len(cases), workers,
            stop=(lambda result: not result.passed)
            if stop_on_divergence else None)
        merged = [result for result in results if result is not None]
        if stop_on_divergence:
            # truncate at the first failure in case order — exactly the
            # list the serial stop-early loop would have produced
            failing = next((position for position, result
                            in enumerate(merged) if not result.passed), None)
            if failing is not None:
                merged = merged[:failing + 1]
        elapsed = time.monotonic() - started
        outcome = SuiteResult(merged, elapsed)
        suite_span.add(ran=len(outcome.results),
                       divergent=len(outcome.failures))
        if TRACER.enabled:
            METRICS.set_gauge("engine.executor_workers", workers)
            METRICS.set_gauge(
                "engine.cases_per_sec",
                len(outcome.results) / elapsed if elapsed > 0
                else float(len(outcome.results)))
            if elapsed > 0:
                METRICS.set_gauge("engine.executor_utilization",
                                  busy_total / (elapsed * workers))
        return outcome
