"""Explicit-state model checker (the TLC substitute).

Breadth-first enumeration of the reachable state space of a
:class:`~repro.tlaplus.spec.Specification`:

* start from every ``Init`` state,
* for each frontier state apply every enabled action binding,
* intern successors (deduplicating by structural equality),
* check invariants on every new state,
* record every transition as a labelled edge.

The result is a :class:`~repro.tlaplus.graph.StateGraph` plus checking
statistics — the same artifact TLC dumps to DOT, which is all Mocket
needs downstream.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List, Optional

from ..obs import METRICS, TRACER
from .errors import CheckingBudgetExceeded, InvariantViolation
from .graph import StateGraph
from .spec import RunTable, Specification

__all__ = ["CheckResult", "ModelChecker", "TruncatedExplorationWarning", "check"]


class TruncatedExplorationWarning(UserWarning):
    """A query only meaningful on a complete exploration ran on a
    truncated one (e.g. :meth:`CheckResult.deadlocks` after hitting the
    state budget)."""


class CheckResult:
    """Outcome of a model-checking run."""

    def __init__(
        self,
        graph: StateGraph,
        states_explored: int,
        edges_explored: int,
        elapsed_seconds: float,
        complete: bool,
        diameter: int,
        violation: Optional[InvariantViolation] = None,
        refused_successors: int = 0,
        memo: Optional[Dict[str, int]] = None,
    ):
        self.graph = graph
        self.states_explored = states_explored
        self.edges_explored = edges_explored
        self.elapsed_seconds = elapsed_seconds
        self.complete = complete          # True iff the full space was exhausted
        self.diameter = diameter          # longest BFS distance from Init (TLC's "depth")
        self.violation = violation
        # successors refused by the truncate=True state budget; they are
        # neither states nor edges of the graph and are not counted as such
        self.refused_successors = refused_successors
        # the run's action-memo counts: memo_hits, memo_misses, memo_entries
        self.memo = memo or {"memo_hits": 0, "memo_misses": 0,
                             "memo_entries": 0}

    @property
    def ok(self) -> bool:
        return self.violation is None

    def deadlocks(self, strict: bool = False) -> List[int]:
        """States with no enabled action (TLC's deadlock check).

        Only meaningful on a complete exploration: a truncated run
        contains frontier states whose successors were never expanded,
        which look terminal without being deadlocks.  Calling this on a
        truncated result warns (:class:`TruncatedExplorationWarning`) —
        or raises ``ValueError`` with ``strict=True`` — instead of
        silently returning misleading states.
        """
        if not self.complete:
            message = (
                f"deadlocks() on a truncated exploration of "
                f"{self.graph.spec_name!r}: unexpanded frontier states "
                f"look terminal; re-check with a larger state budget"
            )
            if strict:
                raise ValueError(message)
            warnings.warn(message, TruncatedExplorationWarning, stacklevel=2)
        return self.graph.terminal_ids()

    def summary(self) -> str:
        status = "OK" if self.ok else f"VIOLATION({self.violation.invariant_name})"
        completeness = "complete" if self.complete else "truncated"
        return (
            f"{self.graph.spec_name}: {self.states_explored} states, "
            f"{self.edges_explored} edges, diameter {self.diameter}, "
            f"{self.elapsed_seconds:.3f}s, {completeness}, {status}"
        )


class ModelChecker:
    """BFS explicit-state checker with state/edge budgets.

    ``max_states`` bounds exploration (raising by default, or truncating
    when ``truncate=True``) so that unboundedly growing specs can still
    be used to produce a finite graph for test generation — the paper's
    action counters serve the same purpose inside the spec itself.

    ``checkpoint`` (a directory path or
    :class:`~repro.engine.CheckpointStore`) snapshots progress at every
    BFS level boundary; ``resume=True`` continues from the latest
    snapshot and yields the graph an uninterrupted run would have.
    Snapshots stop at the first refused successor (a truncated level
    cannot be resumed from) and the final one is written only for a
    complete run, so the directory always holds a resumable level.
    """

    def __init__(
        self,
        spec: Specification,
        max_states: Optional[int] = None,
        truncate: bool = False,
        stop_on_violation: bool = True,
        checkpoint=None,
        resume: bool = False,
    ):
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint store")
        self.spec = spec
        self.max_states = max_states
        self.truncate = truncate
        self.stop_on_violation = stop_on_violation
        self.resume = resume
        self._snapshots = None
        if checkpoint is not None:
            # lazy: engine builds on this module
            from ..engine.checkpoint import Checkpointer

            self._snapshots = Checkpointer(checkpoint, spec.name)

    def run(self) -> CheckResult:
        with TRACER.span("checker.run", spec=self.spec.name,
                         max_states=self.max_states) as checker_span:
            result = self._run()
            checker_span.add(states=result.states_explored,
                             edges=result.edges_explored,
                             complete=result.complete,
                             ok=result.ok,
                             refused=result.refused_successors,
                             **result.memo)
            return result

    def _run(self) -> CheckResult:
        start = time.monotonic()
        # hot path: sample the flag once; a run is all-or-nothing traced
        tracing = TRACER.enabled
        snapshots = self._snapshots
        # hot path: bound once, called per binding / per new state
        enabled = self.spec.enabled
        check_invariants = self.spec.check_invariants
        violation: Optional[InvariantViolation] = None
        complete = True
        refused = 0
        level = 0          # BFS depth of the states in ``frontier``

        if self.resume:
            graph, parents, frontier, level, violated = snapshots.restore()
            if violated is not None:
                violation = self._violation(graph, parents, *violated)
                if self.stop_on_violation:
                    return self._finish(graph, start, False, level,
                                        violation, refused, None)
        else:
            graph = StateGraph(self.spec.name)
            # parent pointers for counterexample traces: node -> (pred, label)
            parents: Dict[int, Optional[tuple]] = {}
            frontier: List[int] = []
            for state in self.spec.initial_states():
                node_id = graph.add_state(state, initial=True)
                if node_id not in parents:
                    parents[node_id] = None
                    frontier.append(node_id)
                    inv_name = check_invariants(state)
                    if inv_name is not None:
                        violation = violation or self._violation(
                            graph, parents, node_id, inv_name)
                        if self.stop_on_violation:
                            return self._finish(graph, start, False, level,
                                                violation, refused, None)

        # equal labels become one object, and each memoized action is
        # evaluated once per read-set projection, for this run only
        table = run_table(self.spec, graph)
        # FIFO BFS, one level per round of the outer loop
        while True:
            if snapshots is not None and complete:
                snapshots.save(graph, frontier, level, not frontier,
                               violation, start)
            if not frontier:
                break
            next_frontier: List[int] = []
            for node_id in frontier:
                state = graph.state_of(node_id)
                for label, successor in enabled(state, table):
                    succ_id = graph.id_of(successor)
                    is_new = succ_id is None
                    if is_new:
                        if self.max_states is not None and graph.num_states >= self.max_states:
                            if self.truncate:
                                # the refused successor is not part of the graph:
                                # do not count it as an explored edge either
                                if complete:
                                    TRACER.emit("checker.truncated",
                                                states=graph.num_states,
                                                max_states=self.max_states,
                                                level=level + 1)
                                complete = False
                                refused += 1
                                graph.refused_ids.add(node_id)
                                continue
                            raise CheckingBudgetExceeded(graph.num_states, self.max_states)
                        succ_id = graph.add_state(successor)
                    graph.add_edge(node_id, succ_id, label)
                    if is_new:
                        parents[succ_id] = (node_id, label)
                        next_frontier.append(succ_id)
                        inv_name = check_invariants(successor)
                        if inv_name is not None:
                            violation = violation or self._violation(
                                graph, parents, succ_id, inv_name)
                            if self.stop_on_violation:
                                return self._finish(graph, start, False,
                                                    level + 1, violation,
                                                    refused, table)
            frontier = next_frontier
            if frontier:
                level += 1
                if tracing:
                    TRACER.emit("checker.bfs_level", level=level,
                                frontier=len(frontier),
                                states=graph.num_states,
                                edges=graph.num_edges)
                    METRICS.gauge("checker.frontier_peak").max(len(frontier))

        return self._finish(graph, start, complete, level, violation, refused,
                            table)

    # -- helpers -------------------------------------------------------------
    def _violation(self, graph, parents, node_id, inv_name) -> InvariantViolation:
        return InvariantViolation(
            inv_name, graph.state_of(node_id), self.trace_to(graph, parents, node_id)
        )

    @staticmethod
    def trace_to(graph: StateGraph, parents: Dict[int, Optional[tuple]], node_id: int):
        """Reconstruct the counterexample trace ``[(label|None, state), ...]``."""
        steps: List[tuple] = []
        current: Optional[int] = node_id
        while current is not None:
            parent = parents[current]
            if parent is None:
                steps.append((None, graph.state_of(current)))
                current = None
            else:
                pred, label = parent
                steps.append((label, graph.state_of(current)))
                current = pred
        steps.reverse()
        return steps

    def _finish(self, graph, start, complete, diameter, violation,
                refused, table) -> CheckResult:
        elapsed = time.monotonic() - start
        if TRACER.enabled:
            METRICS.set_gauge("checker.states", graph.num_states)
            METRICS.set_gauge("checker.edges", graph.num_edges)
            METRICS.set_gauge("checker.diameter", diameter)
            METRICS.set_gauge(
                "checker.states_per_sec",
                graph.num_states / elapsed if elapsed > 0 else float(graph.num_states),
            )
            if refused:
                METRICS.set_gauge("checker.refused_successors", refused)
        return CheckResult(
            graph=graph,
            states_explored=graph.num_states,
            edges_explored=graph.num_edges,
            elapsed_seconds=elapsed,
            complete=complete,
            diameter=diameter,
            violation=violation,
            refused_successors=refused,
            memo=None if table is None else {
                "memo_hits": table.hits, "memo_misses": table.misses,
                "memo_entries": table.entries},
        )


def run_table(spec: Specification, graph: StateGraph) -> RunTable:
    """A fresh per-run table for exploring ``spec`` into ``graph``: it
    memoizes every action whose read footprint is fully known, and
    interns stored updates through the graph's own value table."""
    # lazy: analysis builds on this package
    from ..analysis.effects import read_footprints

    return RunTable(read_footprints(spec), graph.values)


def check(
    spec: Specification,
    max_states: Optional[int] = None,
    truncate: bool = False,
    stop_on_violation: bool = True,
    workers: int = 1,
    checkpoint=None,
    resume: bool = False,
) -> CheckResult:
    """Convenience wrapper: model-check ``spec`` and return the result.

    ``checkpoint``/``resume`` are :class:`ModelChecker`'s.  ``workers``
    is accepted and **ignored**: there is one explorer and it is serial.
    The keyword survives only because the frozen pipeline benchmark's
    ``explore-ladder`` round calls ``check(spec, workers=2)``; it goes
    when that benchmark retires its ``engine.sharded_w2*`` stage.
    """
    del workers
    return ModelChecker(
        spec,
        max_states=max_states,
        truncate=truncate,
        stop_on_violation=stop_on_violation,
        checkpoint=checkpoint,
        resume=resume,
    ).run()
