"""Reload a JSONL trace and reconstruct per-case action timelines.

The runner emits one ``runner.case`` span per test case and one
``runner.step`` span per executed action, each carrying the case id,
step index, action name and outcome.  :class:`TraceReader` groups those
records back into :class:`CaseTimeline` objects — the structured input
a divergence replayer (or a human) needs to see what actually ran, in
what order, and how long each step took.

Reading is *lazy*: :meth:`TraceReader.from_file` opens nothing until the
trace is consumed, and :meth:`TraceReader.iter_events` streams records
one line at a time (the sink writes records under a lock with an
incrementing ``seq``, so file order **is** seq order — no sort pass
needed).  Both :meth:`summarize` and ``mocket conform`` ride this path,
so multi-gigabyte traces never have to fit in memory; accessing
:attr:`events` materializes the list for callers that need random
access.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from .. import artifact
from .tracer import TraceEvent

__all__ = ["StepRecord", "FaultRecord", "CaseTimeline", "TraceReader"]

#: JSON envelope version for ``mocket trace summarize --format json``.
SUMMARY_VERSION = 1

_NUMBER = (int, float)
#: the types of the fields the summaries fold, per record name; a
#: record whose field has another type is a damaged trace line
_FIELD_TYPES: Dict[str, Dict[str, Any]] = {
    "runner.step": {"case": int, "step": int, "action": str,
                    "outcome": str, "src_fp": str, "dst_fp": str,
                    "edge_fp": str},
    "runner.case": {"case": int, "outcome": str},
    "fault.inject": {"case": int, "step": int, "kind": str,
                     "params": dict},
    "fault.heal": {"case": int},
    "runner.quiesce": {"waited_s": _NUMBER},
    "checker.run": {"states": int, "edges": int, "memo_hits": int,
                    "memo_misses": int, "memo_entries": int},
    "runner.suite": {"graph_states": int, "graph_edges": int},
}


def _checked(event: TraceEvent) -> TraceEvent:
    """``event``, or TypeError when a field the summaries fold (or its
    timing) has the wrong type."""
    if not isinstance(event.seq, int) or not isinstance(event.ts, _NUMBER) \
            or not isinstance(event.dur, _NUMBER + (type(None),)):
        raise TypeError("seq, ts or dur is not a number")
    for key, kind in _FIELD_TYPES.get(event.name, {}).items():
        value = event.fields.get(key)
        if value is not None and not isinstance(value, kind):
            raise TypeError(f"{event.name} field {key!r} has type "
                            f"{type(value).__name__}")
    return event


class StepRecord:
    """One executed action inside a case timeline."""

    __slots__ = ("index", "action", "ts", "dur", "outcome")

    def __init__(self, index: int, action: str, ts: float,
                 dur: Optional[float], outcome: str):
        self.index = index
        self.action = action
        self.ts = ts
        self.dur = dur
        self.outcome = outcome      # "ok" or a DivergenceKind value

    def __repr__(self) -> str:
        dur = f"{self.dur:.6f}s" if self.dur is not None else "?"
        return f"StepRecord(#{self.index} {self.action} {dur} {self.outcome})"


class FaultRecord:
    """One nemesis event (``fault.inject`` / ``fault.heal``) in a case."""

    __slots__ = ("kind", "step", "ts", "detail")

    def __init__(self, kind: str, step: Optional[int], ts: float, detail: str):
        self.kind = kind            # a ChaosKind value, or "heal"
        self.step = step            # step boundary it fired at (None for heal)
        self.ts = ts
        self.detail = detail

    def __repr__(self) -> str:
        at = f"@{self.step}" if self.step is not None else ""
        return f"FaultRecord({self.kind}{at} {self.detail})"


class CaseTimeline:
    """The reconstructed timeline of one test case."""

    def __init__(self, case_id: int):
        self.case_id = case_id
        self.steps: List[StepRecord] = []
        self.faults: List[FaultRecord] = []
        self.outcome: str = "unknown"   # "pass" or a DivergenceKind value
        self.ts: Optional[float] = None
        self.dur: Optional[float] = None

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def describe(self) -> str:
        actions = " -> ".join(step.action for step in self.steps) or "(no steps)"
        return f"#{self.case_id}: {actions} [{self.outcome}]"

    def __repr__(self) -> str:
        return (f"CaseTimeline(#{self.case_id}, {self.step_count} steps, "
                f"{self.outcome})")


def _apply(timelines: Dict[int, CaseTimeline], event: TraceEvent,
           keep: Optional[set] = None) -> None:
    """Fold one record into the timeline map (shared by the eager
    :meth:`TraceReader.case_timelines` and the streaming summarizer).

    ``keep`` bounds detail reconstruction: case ids outside it only get
    an (empty) timeline with outcome tracking, not per-step records.
    """
    if event.name not in ("runner.step", "fault.inject", "fault.heal",
                          "runner.case"):
        return
    fields = event.fields
    case_id = fields.get("case")
    if case_id is None:
        return
    timeline = timelines.get(case_id)
    if timeline is None:
        timeline = timelines[case_id] = CaseTimeline(case_id)
    detailed = keep is None or case_id in keep
    if event.name == "runner.step":
        if detailed:
            timeline.steps.append(StepRecord(
                index=fields.get("step", -1),
                action=fields.get("action", "?"),
                ts=event.ts,
                dur=event.dur,
                outcome=fields.get("outcome", "ok"),
            ))
    elif event.name == "fault.inject":
        if detailed:
            params = fields.get("params") or {}
            detail = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            timeline.faults.append(FaultRecord(
                kind=fields.get("kind", "?"),
                step=fields.get("step"),
                ts=event.ts,
                detail=detail,
            ))
    elif event.name == "fault.heal":
        if detailed:
            timeline.faults.append(FaultRecord(
                kind="heal",
                step=None,
                ts=event.ts,
                detail=f"released {fields.get('released', 0)} messages",
            ))
    elif event.name == "runner.case":
        timeline.outcome = fields.get("outcome", "unknown")
        timeline.ts = event.ts
        timeline.dur = event.dur


class TraceReader:
    """Parsed trace plus timeline reconstruction and summaries."""

    def __init__(self, events: Optional[Iterable[TraceEvent]] = None,
                 path: Optional[str] = None):
        self._path = path
        self._events: Optional[List[TraceEvent]] = (
            None if events is None else sorted(events, key=lambda e: e.seq))
        if self._events is None and path is None:
            self._events = []

    @classmethod
    def from_file(cls, path: str) -> "TraceReader":
        """Attach to a JSONL trace written by the tracer's sink.

        Lazy: no I/O happens until the trace is consumed — iterate
        :meth:`iter_events` for a constant-memory streaming pass, or
        touch :attr:`events` to materialize the whole list.
        """
        return cls(path=path)

    # -- streaming ------------------------------------------------------------
    def iter_events(self) -> Iterator[TraceEvent]:
        """Stream records in seq order without materializing the trace.

        The sink appends records under a lock with an incrementing
        ``seq``, so file order is already seq order.  A malformed line,
        or a field the summaries fold with the wrong type, raises
        :class:`~repro.artifact.ArtifactError` tagged with path and line
        number.
        """
        if self._events is not None:
            return iter(self._events)
        return artifact.records(
            self._path,
            lambda _, record: _checked(TraceEvent.from_dict(record)),
            "trace")

    @property
    def events(self) -> List[TraceEvent]:
        """The full record list (materializes a lazy reader on first use)."""
        if self._events is None:
            self._events = sorted(self.iter_events(), key=lambda e: e.seq)
        return self._events

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def by_name(self, name: str) -> List[TraceEvent]:
        return [event for event in self.iter_events() if event.name == name]

    def names(self) -> Dict[str, int]:
        """Record count per event name (sorted for determinism)."""
        counts: Dict[str, int] = {}
        for event in self.iter_events():
            counts[event.name] = counts.get(event.name, 0) + 1
        return dict(sorted(counts.items()))

    def duration(self) -> float:
        """Wall-clock distance between the first and last record."""
        start = end = None
        for event in self.iter_events():
            stop = event.ts + (event.dur or 0.0)
            start = event.ts if start is None else min(start, event.ts)
            end = stop if end is None else max(end, stop)
        return 0.0 if start is None else end - start

    # -- reconstruction -------------------------------------------------------
    def case_timelines(self) -> Dict[int, CaseTimeline]:
        """Rebuild per-case action timelines from runner spans.

        Returns ``{case_id: CaseTimeline}`` in first-seen order.  Step
        records are ordered by step index; a case whose ``runner.case``
        span never appeared (trace truncated mid-case) still gets a
        timeline, with outcome ``"unknown"``.
        """
        timelines: Dict[int, CaseTimeline] = {}
        for event in self.iter_events():
            _apply(timelines, event)
        for timeline in timelines.values():
            timeline.steps.sort(key=lambda step: (step.index, step.ts))
        return timelines

    @staticmethod
    def _check_line(check: Dict[str, Any]) -> str:
        """Model-checking runs, with the share of memoized (state,
        action) pairs the action memo replayed instead of evaluating."""
        pairs = check["memo_hits"] + check["memo_misses"]
        ratio = check["memo_hits"] / pairs if pairs else 0.0
        return (f"check: {check['runs']} run(s), {check['states']} states, "
                f"{check['edges']} edges; memo {check['memo_hits']} hits / "
                f"{check['memo_misses']} misses ({ratio:.1%} hit), "
                f"{check['memo_entries']} entries")

    @staticmethod
    def _shrink_line(fields: Dict[str, Any]) -> str:
        tag = (" (fault-independent)"
               if fields.get("fault_independent") else "")
        status = "" if fields.get("converged", True) else " [budget exhausted]"
        signature = ", ".join(fields.get("signature", ())) or "?"
        return (f"shrink: {fields.get('initial', '?')} -> "
                f"{fields.get('final', '?')} injections in "
                f"{fields.get('replays', '?')} replays{status}; "
                f"reproduces: {signature}{tag}")

    @staticmethod
    def _conform_line(fields: Dict[str, Any]) -> str:
        line = (f"conformance: {fields.get('verdict', '?')} "
                f"({fields.get('events', '?')} events, "
                f"{fields.get('sessions', '?')} sessions, "
                f"spec {fields.get('spec', '?')})")
        if fields.get("line") is not None:
            line += (f"; first divergence at line {fields['line']} "
                     f"({fields.get('action', '?')!r})")
        return line

    @staticmethod
    def _coverage_line(coverage: Dict[str, Any]) -> str:
        states_total = coverage.get("graph_states")
        edges_total = coverage.get("graph_edges")
        of_states = f" of {states_total}" if states_total is not None else ""
        of_edges = f" of {edges_total}" if edges_total is not None else ""
        return (f"coverage: {coverage['states']}{of_states} states, "
                f"{coverage['edges']}{of_edges} edges visited")

    @staticmethod
    def _quiesce_line(quiesce: Dict[str, Any]) -> str:
        """End-of-case quiescence waits and idle verdicts: scheduler
        waits that quiescence ended without the awaited action."""
        return (f"quiescence: {quiesce['waits']} end-of-case waits, "
                f"{quiesce['waited_s']:.3f}s waited; "
                f"{quiesce['idle_verdicts']} idle verdicts")

    @staticmethod
    def _soak_line(fields: Dict[str, Any]) -> str:
        div = fields.get("divergences") or {}
        kinds = (", ".join(f"{k}={v}" for k, v in sorted(div.items()))
                 if div else "none")
        return (f"soak: {fields.get('acked', '?')} of "
                f"{fields.get('submitted', '?')} ops acked over "
                f"{fields.get('sim_time', '?')}s simulated "
                f"({fields.get('shards', '?')} shard(s), "
                f"seed {fields.get('seed', '?')!r}); divergences: {kinds}")

    @staticmethod
    def _fuzz_line(fields: Dict[str, Any]) -> str:
        arm = "guided" if fields.get("guided", True) else "unguided"
        return (f"fuzz: {fields.get('runs', '?')} runs ({arm}), "
                f"{fields.get('entries', '?')} corpus entries, "
                f"{fields.get('states', '?')} of "
                f"{fields.get('graph_states', '?')} states, "
                f"{fields.get('edges', '?')} of "
                f"{fields.get('graph_edges', '?')} edges, "
                f"{fields.get('bugs', '?')} bug(s)")

    # -- summaries ------------------------------------------------------------
    def _scan(self, max_cases: Optional[int] = None) -> Dict[str, Any]:
        """One streaming pass gathering everything a summary needs.

        Per-step detail is only reconstructed for the first
        ``max_cases`` distinct cases; later cases still contribute to
        the totals and outcome counts, so memory stays proportional to
        the number of *cases shown*, not the number of records.
        """
        records = 0
        start = end = None
        counts: Dict[str, int] = {}
        shrink_fields = conform_fields = fuzz_fields = None
        soak_fields = None
        quiesce = {"waits": 0, "waited_s": 0.0, "idle_verdicts": 0}
        graph_states = graph_edges = None
        check = {"runs": 0, "states": 0, "edges": 0, "memo_hits": 0,
                 "memo_misses": 0, "memo_entries": 0}
        state_fps: set = set()
        edge_fps: set = set()
        timelines: Dict[int, CaseTimeline] = {}
        keep: Optional[set] = set() if max_cases is not None else None
        for event in self.iter_events():
            records += 1
            stop = event.ts + (event.dur or 0.0)
            start = event.ts if start is None else min(start, event.ts)
            end = stop if end is None else max(end, stop)
            counts[event.name] = counts.get(event.name, 0) + 1
            if event.name == "shrink.done":
                shrink_fields = event.fields
            elif event.name == "conform.done":
                conform_fields = event.fields
            elif event.name == "fuzz.done":
                fuzz_fields = event.fields
            elif event.name == "soak.done":
                soak_fields = event.fields
            elif event.name == "runner.quiesce":
                quiesce["waits"] += 1
                quiesce["waited_s"] += event.fields.get("waited_s", 0.0)
            elif event.name == "testbed.idle_verdict":
                quiesce["idle_verdicts"] += 1
            elif event.name == "checker.run":
                check["runs"] += 1
                for key in ("states", "edges", "memo_hits", "memo_misses",
                            "memo_entries"):
                    check[key] += event.fields.get(key) or 0
            elif event.name == "runner.suite":
                if event.fields.get("graph_states") is not None:
                    graph_states = event.fields["graph_states"]
                    graph_edges = event.fields.get("graph_edges")
            if event.name == "runner.step":
                fields = event.fields
                if "edge_fp" in fields:
                    state_fps.add(fields["src_fp"])
                    state_fps.add(fields["dst_fp"])
                    edge_fps.add(fields["edge_fp"])
            if keep is not None and event.name in (
                    "runner.step", "fault.inject", "fault.heal",
                    "runner.case"):
                case_id = event.fields.get("case")
                if case_id is not None and case_id not in keep:
                    if len(keep) < max_cases:
                        keep.add(case_id)
            _apply(timelines, event, keep)
        for timeline in timelines.values():
            timeline.steps.sort(key=lambda step: (step.index, step.ts))
        coverage = None
        if state_fps or edge_fps:
            coverage = {
                "states": len(state_fps),
                "edges": len(edge_fps),
                "graph_states": graph_states,
                "graph_edges": graph_edges,
            }
        return {
            "records": records,
            "duration": 0.0 if start is None else end - start,
            "names": dict(sorted(counts.items())),
            "timelines": timelines,
            "shown": (len(timelines) if max_cases is None
                      else min(max_cases, len(timelines))),
            "shrink": shrink_fields,
            "conform": conform_fields,
            "coverage": coverage,
            "fuzz": fuzz_fields,
            "soak": soak_fields,
            "quiescence": (quiesce if quiesce["waits"]
                           or quiesce["idle_verdicts"] else None),
            "check": check if check["runs"] else None,
        }

    def summary_dict(self, max_cases: Optional[int] = None) -> Dict[str, Any]:
        """The stable v1 JSON envelope for ``trace summarize --format json``."""
        scan = self._scan(max_cases)
        timelines = scan["timelines"]
        shown = list(timelines.values())[: scan["shown"]]
        return {
            "version": SUMMARY_VERSION,
            "records": scan["records"],
            "duration": round(scan["duration"], 6),
            "names": scan["names"],
            "cases": {
                "total": len(timelines),
                "divergent": sum(1 for t in timelines.values() if not t.passed),
                "shown": [
                    {
                        "case": t.case_id,
                        "outcome": t.outcome,
                        "steps": [
                            {"index": s.index, "action": s.action,
                             "outcome": s.outcome}
                            for s in t.steps
                        ],
                        "faults": [
                            {"kind": f.kind, "step": f.step, "detail": f.detail}
                            for f in t.faults
                        ],
                    }
                    for t in shown
                ],
            },
            "shrink": (self._shrink_line(scan["shrink"])
                       if scan["shrink"] else None),
            "conformance": dict(scan["conform"]) if scan["conform"] else None,
            "coverage": (dict(scan["coverage"])
                         if scan["coverage"] else None),
            "fuzz": dict(scan["fuzz"]) if scan["fuzz"] else None,
            "soak": dict(scan["soak"]) if scan["soak"] else None,
            "quiescence": scan["quiescence"],
        }

    # -- human output ---------------------------------------------------------
    def summarize(self, max_cases: Optional[int] = None) -> str:
        """A text report: totals, per-name counts, per-case timelines.

        Single streaming pass — safe on traces far larger than memory.
        """
        scan = self._scan(max_cases)
        lines: List[str] = [
            f"trace: {scan['records']} records over {scan['duration']:.3f}s"
        ]
        counts = scan["names"]
        if counts:
            lines.append("records by name:")
            width = max(len(name) for name in counts)
            for name, count in counts.items():
                lines.append(f"  {name.ljust(width)}  {count}")
        if scan["check"]:
            lines.append(self._check_line(scan["check"]))
        if scan["shrink"]:
            lines.append(self._shrink_line(scan["shrink"]))
        if scan["conform"]:
            lines.append(self._conform_line(scan["conform"]))
        if scan["coverage"]:
            lines.append(self._coverage_line(scan["coverage"]))
        if scan["fuzz"]:
            lines.append(self._fuzz_line(scan["fuzz"]))
        if scan["soak"]:
            lines.append(self._soak_line(scan["soak"]))
        if scan["quiescence"]:
            lines.append(self._quiesce_line(scan["quiescence"]))
        timelines = scan["timelines"]
        if timelines:
            divergent = sum(1 for t in timelines.values() if not t.passed)
            lines.append(f"cases: {len(timelines)} ({divergent} divergent)")
            shown = list(timelines.values())[: scan["shown"]]
            for timeline in shown:
                dur = (f", {timeline.dur:.3f}s"
                       if timeline.dur is not None else "")
                injected = (f", {len(timeline.faults)} fault events"
                            if timeline.faults else "")
                lines.append(f"  case #{timeline.case_id}: "
                             f"{timeline.step_count} steps, "
                             f"{timeline.outcome}{dur}{injected}")
                for step in timeline.steps:
                    dur = f"{step.dur:.6f}s" if step.dur is not None else "?"
                    lines.append(f"    [{step.index}] {step.action}  {dur}  "
                                 f"{step.outcome}")
                for fault in timeline.faults:
                    at = (f"before step {fault.step}"
                          if fault.step is not None else "on retry/teardown")
                    lines.append(f"    !! {fault.kind} {at}"
                                 f"{'  ' + fault.detail if fault.detail else ''}")
            if len(timelines) > scan["shown"]:
                lines.append(f"  ... {len(timelines) - scan['shown']} "
                             f"more cases")
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self._events is None:
            return f"TraceReader(lazy, {self._path!r})"
        return f"TraceReader({len(self._events)} records)"
