"""Structured tracing: typed, monotonically-timestamped event records.

Every record is either an instantaneous *event* or a *span* (a timed
region emitted once, at exit, with its start timestamp and duration).
Records carry a process-wide sequence number and a timestamp from the
monotonic clock, so a reloaded trace can always be totally ordered even
when span records are written out of timestamp order (a parent span is
emitted after its children).

The tracer is disabled by default.  ``emit``/``span`` return immediately
after a single attribute test, and ``span`` hands back a shared no-op
context manager, so instrumented hot paths pay well under a microsecond
per disabled call.  Call sites on the hottest loops additionally guard
with ``if TRACER.enabled:`` to skip building the field dict at all.

Event names in use across the pipeline (see docs/OBSERVABILITY.md):

``checker.run`` ``checker.bfs_level`` ``testgen.generate``
``testgen.traversal`` ``testgen.case_emitted`` ``por.reduce``
``por.pruned`` ``scheduler.notification`` ``runner.suite``
``runner.case`` ``runner.step`` ``statecheck.compare``
``fault.injected`` ``runner.divergence`` ``soak.run`` ``soak.snapshot``
``soak.shard`` ``soak.divergence`` ``soak.done``
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "NULL_SPAN",
    "TRACER",
    "TraceEvent",
    "Tracer",
    "configure",
    "disable",
    "emit",
    "is_enabled",
    "reset",
    "span",
]

DEFAULT_CAPACITY = 65536


def jsonable(value: Any) -> Any:
    """Best-effort conversion of a field value to a JSON-friendly form.

    Spec-domain values (FrozenDict, frozenset, tuples, bags) appear in
    trace fields; anything JSON cannot carry natively falls back to its
    ``repr`` so a trace is always serializable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        try:
            return sorted(jsonable(v) for v in value)
        except TypeError:
            return sorted((jsonable(v) for v in value), key=repr)
    # Mapping-likes (FrozenDict) expose items(); everything else -> repr.
    items = getattr(value, "items", None)
    if callable(items):
        try:
            return {str(k): jsonable(v) for k, v in items()}
        except Exception:
            pass
    return repr(value)


class TraceEvent:
    """One trace record: an instantaneous event or a completed span."""

    __slots__ = ("seq", "ts", "kind", "name", "dur", "fields")

    def __init__(self, seq: int, ts: float, kind: str, name: str,
                 dur: Optional[float], fields: Dict[str, Any]):
        self.seq = seq          # process-wide, strictly increasing
        self.ts = ts            # seconds since the tracer's epoch (monotonic)
        self.kind = kind        # "event" | "span"
        self.name = name
        self.dur = dur          # span duration in seconds; None for events
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": self.seq,
            "ts": round(self.ts, 9),
            "kind": self.kind,
            "name": self.name,
        }
        if self.dur is not None:
            record["dur"] = round(self.dur, 9)
        if self.fields:
            record["fields"] = {k: jsonable(v) for k, v in self.fields.items()}
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        if not isinstance(record.get("fields", {}), dict):
            raise TypeError("'fields' is not an object")
        return cls(
            seq=record["seq"],
            ts=record["ts"],
            kind=record.get("kind", "event"),
            name=record["name"],
            dur=record.get("dur"),
            fields=record.get("fields", {}),
        )

    def __repr__(self) -> str:
        dur = f", dur={self.dur:.6f}s" if self.dur is not None else ""
        return f"TraceEvent(#{self.seq} {self.name}{dur} {self.fields!r})"


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, **fields: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """A timed region; emits one ``span`` record when the block exits."""

    __slots__ = ("_tracer", "name", "fields", "start")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.fields = fields
        self.start = 0.0

    def add(self, **fields: Any) -> None:
        """Attach fields discovered while the span is open (e.g. outcome)."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self.start = self._tracer._now()
        return self

    def __exit__(self, *exc) -> bool:
        end = self._tracer._now()
        self._tracer._record("span", self.name, self.fields,
                             ts=self.start, dur=end - self.start)
        return False


class Tracer:
    """Process-wide trace collector: ring buffer + optional JSONL sink."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.enabled = False           # the fast-path guard; a plain attribute
        self.capacity = capacity
        self._default_capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._emitted = 0              # total records ever emitted
        self._epoch = time.monotonic()
        self._last_ts = 0.0
        self._sink = None              # open file object, or None
        self._sink_path: Optional[str] = None
        self._sim_clock = None         # VirtualClock during simulated runs

    # -- configuration --------------------------------------------------------
    def set_sim_clock(self, clock: Optional[Any]) -> None:
        """Stamp records with simulated time while ``clock`` is set.

        The simulation harness (:mod:`repro.runtime.sim`) installs its
        :class:`VirtualClock` here for the duration of an in-process
        run; every record then carries a ``sim`` field alongside the
        wall ``ts``, so a trace can be read on either timeline.  Pass
        ``None`` to detach.
        """
        self._sim_clock = clock
    def configure(self, enabled: bool = True, sink: Optional[str] = None,
                  capacity: Optional[int] = None) -> None:
        """Enable (or re-arm) tracing; ``sink`` is a JSONL file path."""
        with self._lock:
            if capacity is not None and capacity != self.capacity:
                self.capacity = capacity
                self._buffer = deque(self._buffer, maxlen=capacity)
            self._close_sink_locked()
            if sink is not None:
                self._sink = open(sink, "w", encoding="utf-8")
                self._sink_path = sink
            self.enabled = enabled

    def disable(self) -> None:
        """Stop tracing and close the sink (buffer contents are kept)."""
        with self._lock:
            self.enabled = False
            self._close_sink_locked()

    def reset(self) -> None:
        """Disable, drop all buffered records and restart the clock.

        Also restores the construction-time ring capacity, so a
        ``configure(capacity=...)`` in one run cannot leak into the next.
        """
        with self._lock:
            self.enabled = False
            self._close_sink_locked()
            if self.capacity != self._default_capacity:
                self.capacity = self._default_capacity
                self._buffer = deque(maxlen=self.capacity)
            self._buffer.clear()
            self._seq = 0
            self._emitted = 0
            self._epoch = time.monotonic()
            self._last_ts = 0.0
            self._sim_clock = None

    def _close_sink_locked(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None
            self._sink_path = None

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path

    # -- recording ------------------------------------------------------------
    def _now(self) -> float:
        return time.monotonic() - self._epoch

    def emit(self, name: str, /, **fields: Any) -> None:
        """Record an instantaneous event (no-op while disabled).

        ``name`` is positional-only so a field may itself be called
        ``name`` (e.g. scheduler notifications).
        """
        if not self.enabled:
            return
        self._record("event", name, fields)

    def span(self, name: str, /, **fields: Any):
        """A context manager timing a region (shared no-op while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, fields)

    def _record(self, kind: str, name: str, fields: Dict[str, Any],
                ts: Optional[float] = None, dur: Optional[float] = None) -> None:
        with self._lock:
            if not self.enabled:       # disabled while a span was open
                return
            now = self._now() if ts is None else ts
            # the monotonic clock can tick coarsely; force strict order
            if now <= self._last_ts:
                now = self._last_ts + 1e-9
            self._last_ts = now
            if self._sim_clock is not None and "sim" not in fields:
                fields = dict(fields)
                fields["sim"] = round(self._sim_clock.now(), 9)
            event = TraceEvent(self._seq, now, kind, name, dur, fields)
            self._seq += 1
            self._emitted += 1
            self._buffer.append(event)
            if self._sink is not None:
                self._sink.write(json.dumps(event.to_dict(), sort_keys=True))
                self._sink.write("\n")

    # -- inspection -----------------------------------------------------------
    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        """Buffered records (oldest first), optionally filtered by name."""
        with self._lock:
            records = list(self._buffer)
        if name is not None:
            records = [e for e in records if e.name == name]
        return records

    @property
    def emitted(self) -> int:
        """Total records emitted since the last reset."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Records pushed out of the ring buffer by newer ones."""
        with self._lock:
            return self._emitted - len(self._buffer)

    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def __repr__(self) -> str:
        status = "enabled" if self.enabled else "disabled"
        return (f"Tracer({status}, {len(self._buffer)}/{self.capacity} "
                f"buffered, sink={self._sink_path!r})")


#: The process-wide tracer every instrumented call site talks to.
TRACER = Tracer()


# -- module-level conveniences (delegate to the global tracer) ----------------
def configure(enabled: bool = True, sink: Optional[str] = None,
              capacity: Optional[int] = None) -> None:
    TRACER.configure(enabled=enabled, sink=sink, capacity=capacity)


def disable() -> None:
    TRACER.disable()


def reset() -> None:
    TRACER.reset()


def is_enabled() -> bool:
    return TRACER.enabled


def emit(name: str, /, **fields: Any) -> None:
    TRACER.emit(name, **fields)


def span(name: str, /, **fields: Any):
    return TRACER.span(name, **fields)
