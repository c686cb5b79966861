"""Stable 64-bit state fingerprints (TLC's FP64 analogue).

The checker deduplicates states with Python's built-in ``hash``,
which is randomized per process (``PYTHONHASHSEED``) and therefore
useless for identifying a state across processes or across a
checkpoint/restart boundary.  This module derives a stable 64-bit
fingerprint from a *canonical byte encoding* of the frozen value tree:

* equal values always produce identical bytes (and hence fingerprints),
  in every process and on every run,
* unordered containers (``FrozenDict``, ``frozenset``) are serialized
  with their elements sorted by encoded bytes, so dict/set iteration
  order never leaks into the encoding,
* the encoding is injective on the frozen value domain (every element
  is length-prefixed and type-tagged), so two states collide only if
  the 64-bit hash itself collides — which the checkpoint writer detects
  because the checker interns exact states, never fingerprints (see
  :class:`FingerprintCollision`).

Checkpoints, fuzz coverage, fault triage ids and the conformance
monitor key on it.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any

from ..tlaplus.state import ActionLabel, State
from ..tlaplus.values import FrozenDict

__all__ = [
    "FingerprintCollision",
    "canonical_state",
    "canonical_value",
    "encode_canonical",
    "fingerprint_label",
    "fingerprint_state",
    "fingerprint_value",
]

_PERSON = b"mocket-fp64"  # domain-separates these hashes from any other blake2b use


class FingerprintCollision(RuntimeError):
    """Two structurally different states produced the same fingerprint.

    With 64-bit fingerprints this is astronomically unlikely at the
    state-space sizes we explore; the checkpoint writer still checks
    every newly interned state's fingerprint against those already
    written, so a collision surfaces as this error instead of a
    snapshot that silently merges two states on resume.
    """


def encode_canonical(value: Any) -> bytes:
    """Canonical, process-independent byte encoding of a frozen value."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _encode(value: Any, out: bytearray) -> None:
    # bool first: bool is a subclass of int but must not encode like one
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        data = str(value).encode("ascii")
        out += b"i%d:" % len(data)
        out += data
    elif isinstance(value, float):
        data = repr(value).encode("ascii")
        out += b"f%d:" % len(data)
        out += data
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += b"s%d:" % len(data)
        out += data
    elif isinstance(value, bytes):
        out += b"b%d:" % len(value)
        out += value
    elif isinstance(value, FrozenDict):
        # sort entries by encoded key bytes: canonical regardless of
        # insertion order, no reliance on cross-type comparability
        entries = sorted(
            (encode_canonical(key), encode_canonical(val))
            for key, val in value.items()
        )
        out += b"d%d:" % len(entries)
        for key_bytes, val_bytes in entries:
            out += key_bytes
            out += val_bytes
    elif isinstance(value, tuple):
        out += b"t%d:" % len(value)
        for item in value:
            _encode(item, out)
    elif isinstance(value, frozenset):
        elements = sorted(encode_canonical(item) for item in value)
        out += b"S%d:" % len(elements)
        for element in elements:
            out += element
    else:
        raise TypeError(
            f"cannot canonically encode value of type {type(value).__name__!r}; "
            f"states must contain only frozen values"
        )


def canonical_value(value: Any) -> Any:
    """Rebuild a frozen value with canonical container construction order.

    Two equal ``FrozenDict``s built from differently-ordered dicts are
    equal and hash alike, but *iterate* in their own insertion orders.
    Spec domains iterate state containers (e.g. ``in_flight`` walks the
    message bag), so the order a state object was built in leaks into
    ``Specification.enabled()`` emission order — and hence into graph
    numbering.  Rebuilding every container with entries inserted in
    canonical (encoded-byte) order makes iteration order a function of
    the state's *content*, which is what makes
    :func:`~repro.engine.canon.canonicalize` a content-only form.
    """
    if isinstance(value, FrozenDict):
        entries = sorted(
            ((encode_canonical(key), key, val) for key, val in value.items()),
            key=lambda item: item[0],
        )
        return FrozenDict({
            canonical_value(key): canonical_value(val)
            for _, key, val in entries
        })
    if isinstance(value, tuple):
        return tuple(canonical_value(item) for item in value)
    if isinstance(value, frozenset):
        # insertion order affects a set's internal layout (collision
        # probing) and hence its iteration/repr order; insert in
        # canonical order so equal sets are laid out identically
        elements = sorted(
            ((encode_canonical(item), item) for item in value),
            key=lambda pair: pair[0],
        )
        return frozenset(canonical_value(item) for _, item in elements)
    return value


def canonical_state(state: State) -> State:
    """An equal state whose containers iterate in canonical order."""
    return State({
        name: canonical_value(state._vars[name])
        for name in sorted(state._vars)
    })


def fingerprint_value(value: Any) -> int:
    """Stable unsigned 64-bit fingerprint of a frozen value."""
    digest = blake2b(encode_canonical(value), digest_size=8,
                     person=_PERSON).digest()
    return int.from_bytes(digest, "big")


def fingerprint_state(state: State) -> int:
    """Stable unsigned 64-bit fingerprint of a checker state."""
    return fingerprint_value(state._vars)


def fingerprint_label(label: ActionLabel) -> int:
    """Stable unsigned 64-bit fingerprint of an action label."""
    return fingerprint_value((label.name, label.params))

