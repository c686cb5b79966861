"""Log adapters: turn an externally captured log into observed events.

Trace conformance consumes *logs*, not live clusters.  A
:class:`LogAdapter` parses one log line into at most one
:class:`LogEvent` — the observation the monitor feeds through the state
graph.  The native adapter reads the ``repro.obs`` JSONL format (the
``runner.step`` records the testbed writes under ``--trace``); the
``jsonl`` adapter accepts a minimal foreign schema so logs from any
deployment can be validated after the fact.  New formats plug in via
:func:`register_adapter`.

All adapters are streaming: :meth:`LogAdapter.read` yields events one
line at a time and never materializes the log, so unbounded production
logs stay checkable under bounded memory (see docs/CONFORMANCE.md).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, TextIO, Tuple, Type, Union

from .. import artifact

__all__ = [
    "LogEvent",
    "LogAdapter",
    "ObsJsonlAdapter",
    "ActionJsonlAdapter",
    "adapter_names",
    "get_adapter",
    "register_adapter",
]


class LogEvent:
    """One observed action occurrence in a captured log.

    ``params`` is a *partial* observation: a log rarely captures the
    full parameter binding of the spec action it witnesses, so the
    monitor only constrains the parameters that are present.
    ``session`` groups events into independent behaviours (one test
    case, one request session); each new session restarts the walk from
    the spec's initial states.
    """

    __slots__ = ("line", "name", "params", "session")

    def __init__(self, line: int, name: str,
                 params: Optional[Dict[str, Any]] = None,
                 session: Optional[Any] = None):
        self.line = line            # 1-based log line number
        self.name = name            # logged event name (pre-binding)
        self.params = params or {}
        self.session = session

    def __repr__(self) -> str:
        at = f"#{self.session}" if self.session is not None else ""
        return f"LogEvent(line {self.line}{at}: {self.name} {self.params!r})"


class LogAdapter:
    """Base adapter: line-oriented parsing with a streaming driver."""

    #: registry key; subclasses set it and call :func:`register_adapter`
    name = ""
    #: :meth:`parse` takes the stripped text line; JSONL adapters set
    #: False and take the line's JSON object instead
    raw = True

    def parse(self, line_no: int, line: Any) -> Optional[LogEvent]:
        """Parse one log line; return None for lines that carry no
        observable action (comments, other record kinds)."""
        raise NotImplementedError

    def read(self, source: Union[str, TextIO]) -> Iterator[LogEvent]:
        """Stream events from a path or an open text handle."""
        return artifact.records(source, self.parse, f"{self.name!r} log",
                                raw=self.raw)


class ObsJsonlAdapter(LogAdapter):
    """The native ``repro.obs`` JSONL trace format.

    Observable events are the ``runner.step`` records; the ``case``
    field is the session id and the ``params`` field (present in traces
    recorded since the conform subsystem landed) carries the parameter
    binding.  Every other record kind (spans, scheduler notifications,
    fault events) is unobservable noise and is skipped.
    """

    name = "obs"
    raw = False

    def parse(self, line_no: int, record: Dict[str, Any]) -> Optional[LogEvent]:
        if record.get("name") != "runner.step":
            return None
        fields = record.get("fields", {})
        action = fields.get("action")
        if action is None:
            return None
        params = fields.get("params")
        if not isinstance(params, dict):
            params = {}
        return LogEvent(line_no, action, params, session=fields.get("case"))


class ActionJsonlAdapter(LogAdapter):
    """A minimal foreign schema: one JSON object per line.

    ``{"action": NAME}`` is the only required key; ``"params"`` (object)
    and ``"session"`` (any scalar; ``"case"`` is accepted as an alias)
    are optional.  This is the integration point for deployments that
    do not use the repro tracer: emit one such line per state-changing
    operation and the monitor can validate the run.
    """

    name = "jsonl"
    raw = False

    def parse(self, line_no: int, record: Dict[str, Any]) -> Optional[LogEvent]:
        action = record.get("action") or record.get("event")
        if action is None:
            raise ValueError("record has no 'action' key")
        params = record.get("params")
        if not isinstance(params, dict):
            params = {}
        session = record.get("session", record.get("case"))
        return LogEvent(line_no, str(action), params, session=session)


_ADAPTERS: Dict[str, Type[LogAdapter]] = {}


def register_adapter(adapter_cls: Type[LogAdapter]) -> Type[LogAdapter]:
    """Register a :class:`LogAdapter` subclass under its ``name``."""
    if not adapter_cls.name:
        raise ValueError(f"adapter {adapter_cls.__name__} has no name")
    if adapter_cls.name in _ADAPTERS:
        raise ValueError(f"duplicate adapter name {adapter_cls.name!r}")
    _ADAPTERS[adapter_cls.name] = adapter_cls
    return adapter_cls


register_adapter(ObsJsonlAdapter)
register_adapter(ActionJsonlAdapter)


def get_adapter(name: str) -> LogAdapter:
    """Instantiate the registered adapter called ``name``."""
    try:
        return _ADAPTERS[name]()
    except KeyError:
        known = "|".join(sorted(_ADAPTERS))
        raise ValueError(f"unknown log adapter {name!r} (known: {known})") from None


def adapter_names() -> Tuple[str, ...]:
    return tuple(sorted(_ADAPTERS))
