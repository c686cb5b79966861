"""On-disk artifacts: the one place that writes and reads mocket files.

Stages hand off through files, as the paper's test generator reads
TLC's dumped state space.  Suites, fault plans, fuzz corpora, soak
schedules and checkpoints are JSON objects whose ``format`` is a key
of :data:`FORMATS`; traces and conformance logs are JSONL streams.
:func:`write` replaces a file atomically; :func:`read` and
:func:`records` fail closed, raising one :class:`ArtifactError` whose
message is one line naming the file (``mocket`` prints it, exits 2).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Any, Callable, Dict, Iterator, Optional

from .tlaplus.errors import DotParseError

__all__ = ["ArtifactError", "FORMATS", "dumps", "write", "read", "records"]


class ArtifactError(ValueError):
    """A file is not the artifact it should be; the message is one line."""


#: format -> (what error lines call it, written sorted and indented):
#: plans, corpora and schedules are diffed and hashed; suites and
#: checkpoints grow with the state space and stay compact
FORMATS = {
    "mocket-test-suite/1": ("suite", False),
    "mocket-checkpoint/1": ("checkpoint", False),
    "mocket-fault-plan/1": ("fault plan", True),
    "mocket-fuzz-corpus/1": ("fuzz corpus", True),
    "mocket-soak-schedule/1": ("soak schedule", True),
}

#: what decoding raises about malformed data
_DATA_ERRORS = (KeyError, TypeError, AttributeError, IndexError,
                ValueError, DotParseError)


def dumps(payload: Dict[str, Any]) -> str:
    """``payload`` as the text :func:`write` writes."""
    buffer = io.StringIO()
    _dump(payload, buffer)
    return buffer.getvalue()


def write(target, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to a text handle, or atomically to a path."""
    if hasattr(target, "write"):
        _dump(payload, target)
        return
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            _dump(payload, handle)
        os.replace(temp, target)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def read(source, format: str, decode: Callable[[Dict[str, Any]], Any]):
    """``decode(payload)`` of the ``format`` object in a path or handle."""
    what = FORMATS[format][0]
    name = _name(source)
    with _opened(source, what) as handle:
        try:
            payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot read {what} {name}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != format:
        raise ArtifactError(f"{name} is not a {format} file")
    try:
        return decode(payload)
    except ArtifactError:
        raise
    except _DATA_ERRORS as exc:
        raise ArtifactError(
            f"cannot read {what} {name}: {_reason(exc)}") from exc


def records(source, parse: Callable[[int, Any], Optional[Any]], what: str,
            raw: bool = False) -> Iterator[Any]:
    """Stream ``parse(line_no, record)`` over the non-blank lines of a
    path or handle, skipping None results.  ``record`` is the line's
    JSON object (the stripped line itself when ``raw``)."""
    name = _name(source)
    line_no = 0
    loads = json.loads
    with _opened(source, what) as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if not raw:
                    line = loads(line)
                    if type(line) is not dict:
                        raise ValueError("not a JSON object")
                item = parse(line_no, line)
                if item is not None:
                    yield item
        except ArtifactError:
            raise
        except (OSError,) + _DATA_ERRORS as exc:
            raise ArtifactError(f"{name}:{line_no}: not a {what} record: "
                                f"{_reason(exc)}") from None


@contextlib.contextmanager
def _opened(source, what: str):
    if hasattr(source, "read"):
        yield source
        return
    try:
        handle = open(source, encoding="utf-8")
    except FileNotFoundError:
        raise ArtifactError(f"no such {what}: {source}") from None
    except OSError as exc:
        raise ArtifactError(f"cannot read {what} {source}: {exc}") from None
    with handle:
        yield handle


def _dump(payload: Dict[str, Any], handle) -> None:
    # streamed: a suite or checkpoint can run to hundreds of megabytes
    if FORMATS[payload["format"]][1]:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    else:
        json.dump(payload, handle)


def _name(source) -> str:
    if hasattr(source, "read"):
        return getattr(source, "name", "<stream>")
    return str(source)


def _reason(exc: BaseException) -> str:
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return str(exc) or type(exc).__name__
