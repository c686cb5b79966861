"""The conformance monitor: a constrained walk over the verified graph.

A captured log is a *partial observation* of a run: it names the action
each event witnessed and (at best) part of the parameter binding, never
the full system state.  Validating it against the spec therefore tracks
the **set of compatible states** — all canonical graph nodes some spec
behaviour could occupy after the events seen so far — rather than a
single path (Cirstea/Kuppe/Loillier/Merz, "Validating Traces of
Distributed Programs Against TLA+ Specifications"):

* the walk starts from the closure of the initial states,
* each observed event keeps exactly the successors reachable by an
  edge whose action matches the event's binding and whose parameters
  agree on every *observed* parameter,
* spec actions with no event binding are *unobservable*: the walk may
  take any number of them silently between observations (an epsilon
  closure),
* the first event for which no compatible state remains is the
  divergence, reported with the log line number and a ranked list of
  near-miss transitions the spec would have allowed.

Memory is bounded TLC-style for unbounded production logs: the tracked
frontier is capped (``max_frontier``) with a deterministic spill policy
— keep the lowest canonical state ids, count the rest.  Spilling only
ever *shrinks* the tracked set, so a ``conforms`` verdict remains sound;
a divergence found after any spill is flagged ``bounded`` because the
dropped states might have explained the log (docs/CONFORMANCE.md).

Everything is deterministic: the graph is canonicalized up front, all
iteration orders are sorted, and reports carry no timing — identical
verdicts and first-divergence line for any ``--workers`` count and any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.mapping import SpecMapping
from ..engine import canonicalize
from ..obs import METRICS, TRACER
from ..obs.tracer import jsonable
from ..tlaplus.graph import StateGraph
from .adapters import LogAdapter, LogEvent, get_adapter
from .report import ConformanceReport, LogDivergence, NearMiss

__all__ = ["ConformanceOptions", "ConformanceMonitor", "conform_log"]

_UNSET = object()   # "no session seen yet" sentinel (None is a valid session)


@dataclass
class ConformanceOptions:
    """Tunables for one conformance run (all deterministic)."""

    max_frontier: int = 4096     # frontier cap; lowest ids kept on spill
    explain: int = 5             # near-miss transitions listed at divergence
    explain_states: int = 8      # frontier states sampled for near-misses
    ignore_unknown: bool = False  # skip unbound events instead of diverging


class ConformanceMonitor:
    """Feed observed events through the spec's canonical state graph.

    ``mapping`` supplies the event→action binding table and the constant
    translation; pass ``None`` for spec-only conformance, where every
    event is assumed to name a spec action directly.
    """

    def __init__(self, graph: StateGraph, mapping: Optional[SpecMapping] = None,
                 options: Optional[ConformanceOptions] = None):
        self.options = options or ConformanceOptions()
        # renumber into content-only canonical form first: verdicts and
        # reported state ids must not depend on how (or with how many
        # workers) the graph was explored
        self.graph = canonicalize(graph)
        self.mapping = mapping
        self.spec_name = self.graph.spec_name
        # per-state action index: name -> [(jsonable params, dst)], in
        # canonical (encoded-params, dst) order — the order canonicalize
        # inserts each state's out-edges in
        self._index: List[Dict[str, List[Tuple[Dict[str, Any], int]]]] = []
        for node_id in range(self.graph.num_states):
            by_name: Dict[str, List[Tuple[Dict[str, Any], int]]] = {}
            for edge in self.graph.out_edges(node_id):
                by_name.setdefault(edge.label.name, []).append(
                    (jsonable(edge.label.params), edge.dst))
            self._index.append(by_name)
        self._action_names = self.graph.action_names()
        if mapping is not None and mapping.events:
            self._bindings = mapping.events
            self._unobservable = (set(mapping.spec.actions)
                                  & self._action_names) - mapping.bound_actions()
        else:
            self._bindings = None          # identity binding on action names
            self._unobservable = set()
        self._closure_memo: Dict[int, Tuple[int, ...]] = {}
        self._trans_cache: Dict[Any, Any] = {}
        self._initial = self._closure(set(self.graph.initial_ids))
        # -- walk state -------------------------------------------------------
        self.frontier: Set[int] = set()
        self._session: Any = _UNSET
        self._skipping = False       # a diverged session drains silently
        # -- accounting -------------------------------------------------------
        self.events = 0
        self.matched = 0
        self.skipped_unknown = 0
        self.sessions = 0
        self.diverged_sessions = 0
        self.frontier_peak = 0
        self.spilled = 0
        self.first_divergence: Optional[LogDivergence] = None

    # -- the walk -------------------------------------------------------------
    def _closure(self, frontier: Set[int]) -> Set[int]:
        """Epsilon closure over unobservable actions."""
        if not self._unobservable:
            return frontier
        out = set(frontier)
        stack = list(frontier)
        while stack:
            node_id = stack.pop()
            cached = self._closure_memo.get(node_id)
            if cached is not None:
                for dst in cached:
                    if dst not in out:
                        out.add(dst)
                        stack.append(dst)
                continue
            reach: Set[int] = set()
            inner = [node_id]
            while inner:
                sid = inner.pop()
                for name, edges in self._index[sid].items():
                    if name in self._unobservable:
                        for _, dst in edges:
                            if dst not in reach and dst != node_id:
                                reach.add(dst)
                                inner.append(dst)
            self._closure_memo[node_id] = tuple(reach)
            for dst in reach:
                if dst not in out:
                    out.add(dst)
                    stack.append(dst)
        return out

    def _translate(self, value: Any) -> Any:
        """Translate one observed param value into the spec's jsonable domain."""
        if self.mapping is None:
            return value
        try:
            cached = self._trans_cache.get(value, _UNSET)
        except TypeError:
            return jsonable(self.mapping.to_spec_value(value))
        if cached is _UNSET:
            cached = jsonable(self.mapping.to_spec_value(value))
            self._trans_cache[value] = cached
        return cached

    def _observed_params(self, event: LogEvent) -> Dict[str, Any]:
        params = event.params
        if not params:
            return {}
        if self._bindings is not None:
            binding = self._bindings.get(event.name)
            if binding is not None and binding.params is not None:
                params = dict(binding.params(params))
        return {key: self._translate(value) for key, value in params.items()}

    @staticmethod
    def _matches(edge_params: Dict[str, Any], observed: Dict[str, Any]) -> bool:
        """Partial-observation match: every observed param present on the
        edge label must agree; unobserved label params are unconstrained."""
        if edge_params == observed:
            return True
        for key, value in observed.items():
            if key in edge_params and edge_params[key] != value:
                return False
        return True

    def _resolve(self, event: LogEvent) -> Optional[str]:
        """The spec action ``event`` witnesses, or None when unbound."""
        if self._bindings is not None:
            binding = self._bindings.get(event.name)
            return binding.action if binding is not None else None
        return event.name if event.name in self._action_names else None

    def feed(self, event: LogEvent) -> bool:
        """Consume one observed event; False once the log has diverged
        in the current session (draining until the next session)."""
        self.events += 1
        if event.session is not self._session and event.session != self._session:
            self._session = event.session
            self.sessions += 1
            self._skipping = False
            self.frontier = set(self._initial)
        if self._skipping:
            return False
        action = self._resolve(event)
        if action is None:
            if self.options.ignore_unknown:
                self.skipped_unknown += 1
                return True
            self._diverge(event, None, {}, "unbound-event")
            return False
        observed = self._observed_params(event)
        closure = self._closure(self.frontier)
        matched: Set[int] = set()
        for node_id in closure:
            edges = self._index[node_id].get(action)
            if not edges:
                continue
            for edge_params, dst in edges:
                if dst not in matched and self._matches(edge_params, observed):
                    matched.add(dst)
        if not matched:
            self._diverge(event, action, observed, "no-transition",
                          closure=closure)
            return False
        if len(matched) > self.options.max_frontier:
            kept = sorted(matched)[: self.options.max_frontier]
            self.spilled += len(matched) - len(kept)
            matched = set(kept)
        self.frontier = matched
        self.matched += 1
        if len(matched) > self.frontier_peak:
            self.frontier_peak = len(matched)
        if TRACER.enabled:
            TRACER.emit("conform.match", line=event.line, action=action,
                        frontier=len(matched))
            METRICS.counter("conform.matched").inc()
        return True

    def _diverge(self, event: LogEvent, action: Optional[str],
                 observed: Dict[str, Any], reason: str,
                 closure: Optional[Set[int]] = None) -> None:
        self.diverged_sessions += 1
        self._skipping = True
        if TRACER.enabled:
            TRACER.emit("conform.diverge", line=event.line,
                        event=event.name, action=action, reason=reason)
            METRICS.counter("conform.diverged").inc()
        if self.first_divergence is not None:
            return
        closure = closure if closure is not None else self._closure(self.frontier)
        self.first_divergence = LogDivergence(
            line=event.line, session=event.session, event=event.name,
            action=action, params=observed, reason=reason,
            near_misses=self._near_misses(closure, action, observed),
            frontier=sorted(closure),
        )

    def _near_misses(self, closure: Set[int], action: Optional[str],
                     observed: Dict[str, Any]) -> List[NearMiss]:
        """Ranked candidate transitions from the last compatible states."""
        misses: List[NearMiss] = []
        seen: Set[Tuple[str, str]] = set()
        for node_id in sorted(closure)[: self.options.explain_states]:
            for name in sorted(self._index[node_id]):
                for edge_params, _dst in self._index[node_id][name]:
                    key = (name, json.dumps(edge_params, sort_keys=True))
                    if key in seen:
                        continue
                    seen.add(key)
                    if name == action:
                        mismatches = sorted(
                            f"{k} (log: {observed[k]!r})"
                            for k in observed
                            if k in edge_params and edge_params[k] != observed[k])
                        misses.append(NearMiss(0, node_id, name, edge_params,
                                               mismatches))
                    else:
                        misses.append(NearMiss(1, node_id, name, edge_params))
        misses.sort(key=lambda m: (m.rank, m.action,
                                   json.dumps(m.params, sort_keys=True),
                                   m.state))
        return misses[: self.options.explain]

    # -- driving --------------------------------------------------------------
    def run(self, events: Iterable[LogEvent], log: str = "<log>",
            adapter: str = "obs") -> ConformanceReport:
        """Feed every event, then :meth:`finish`."""
        for event in events:
            self.feed(event)
        return self.finish(log=log, adapter=adapter)

    def finish(self, log: str = "<log>", adapter: str = "obs") -> ConformanceReport:
        report = ConformanceReport(self.spec_name, log, adapter)
        report.events = self.events
        report.matched = self.matched
        report.skipped_unknown = self.skipped_unknown
        report.sessions = self.sessions
        report.diverged_sessions = self.diverged_sessions
        report.frontier_peak = self.frontier_peak
        report.spilled = self.spilled
        report.bounded = self.spilled > 0
        report.first_divergence = self.first_divergence
        if TRACER.enabled:
            METRICS.counter("conform.events").inc(self.events)
            METRICS.counter("conform.sessions").inc(self.sessions)
            METRICS.gauge("conform.frontier_peak").max(self.frontier_peak)
            METRICS.counter("conform.spilled").inc(self.spilled)
            div = self.first_divergence
            TRACER.emit("conform.done", verdict=report.verdict,
                        spec=self.spec_name, events=self.events,
                        matched=self.matched, sessions=self.sessions,
                        diverged=self.diverged_sessions,
                        line=div.line if div else None,
                        action=(div.action or div.event) if div else None)
        return report


def conform_log(graph: StateGraph, mapping: Optional[SpecMapping], source,
                adapter: str = "obs",
                options: Optional[ConformanceOptions] = None,
                monitor: Optional[ConformanceMonitor] = None) -> ConformanceReport:
    """Validate one captured log against a verified state graph.

    ``source`` is a path or an open text handle; ``adapter`` names a
    registered :class:`~repro.conform.adapters.LogAdapter`.  The log is
    streamed — never materialized — so arbitrarily large logs run in
    bounded memory.
    """
    reader: LogAdapter = get_adapter(adapter)
    if monitor is None:
        monitor = ConformanceMonitor(graph, mapping, options)
    label = source if isinstance(source, str) else getattr(source, "name", "<log>")
    return monitor.run(reader.read(source), log=label, adapter=adapter)
