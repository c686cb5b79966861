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
from typing import Any, Dict, Optional, Tuple

from ..tlaplus.state import ActionLabel, State
from ..tlaplus.values import FrozenDict

__all__ = [
    "FingerprintCollision",
    "canonical_state",
    "canonical_value",
    "edge_fingerprint",
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


#: ``id(value) -> (value, result)``: a memo shared by the calls of one
#: pass over many values.  Each entry holds its object, so no id can be
#: reused by another object while the memo lives.
Memo = Dict[int, Tuple[Any, Any]]


def encode_canonical(value: Any, memo: Optional[Memo] = None) -> bytes:
    """Canonical, process-independent byte encoding of a frozen value.

    Pass one ``memo`` to a run of calls (``canonicalize`` encodes every
    state of a graph) and each distinct object they share — above all
    each ``FrozenDict``/tuple/frozenset — is encoded once.
    """
    return _encode(value, {} if memo is None else memo)


def _encode(value: Any, memo: Memo) -> bytes:
    # bool first: bool is a subclass of int but must not encode like one
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    hit = memo.get(id(value))
    if hit is not None:
        return hit[1]
    if isinstance(value, int):
        data = str(value).encode("ascii")
        data = b"i%d:%s" % (len(data), data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        data = b"s%d:%s" % (len(data), data)
    elif isinstance(value, FrozenDict):
        # sort entries by encoded key bytes: canonical regardless of
        # insertion order, no reliance on cross-type comparability
        entries = sorted([(_encode(key, memo), _encode(val, memo))
                          for key, val in value.items()])
        data = b"d%d:%s" % (len(entries), b"".join(
            [key_bytes + val_bytes for key_bytes, val_bytes in entries]))
    elif isinstance(value, tuple):
        data = b"t%d:%s" % (len(value), b"".join(
            [_encode(item, memo) for item in value]))
    elif isinstance(value, frozenset):
        elements = sorted([_encode(item, memo) for item in value])
        data = b"S%d:%s" % (len(elements), b"".join(elements))
    elif isinstance(value, float):
        data = repr(value).encode("ascii")
        data = b"f%d:%s" % (len(data), data)
    elif isinstance(value, bytes):
        data = b"b%d:%s" % (len(value), value)
    else:
        raise TypeError(
            f"cannot canonically encode value of type {type(value).__name__!r}; "
            f"states must contain only frozen values"
        )
    memo[id(value)] = (value, data)
    return data


def canonical_value(value: Any, memo: Optional[Memo] = None,
                    encoded: Optional[Memo] = None) -> Any:
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

    ``memo`` (rebuilt values) and ``encoded`` (:func:`encode_canonical`'s
    memo) may be shared by a run of calls: each distinct container is
    then rebuilt once, and the results share their rebuilt parts.
    """
    return _rebuild(value, {} if memo is None else memo,
                    {} if encoded is None else encoded)


def _rebuild(value: Any, memo: Memo, encoded: Memo) -> Any:
    if not isinstance(value, (FrozenDict, tuple, frozenset)):
        return value
    hit = memo.get(id(value))
    if hit is not None:
        return hit[1]
    if isinstance(value, FrozenDict):
        entries = sorted(
            ((_encode(key, encoded), key, val) for key, val in value.items()),
            key=lambda item: item[0],
        )
        rebuilt: Any = FrozenDict({
            _rebuild(key, memo, encoded): _rebuild(val, memo, encoded)
            for _, key, val in entries
        })
    elif isinstance(value, tuple):
        rebuilt = tuple([_rebuild(item, memo, encoded) for item in value])
    else:
        # insertion order affects a set's internal layout (collision
        # probing) and hence its iteration/repr order; insert in
        # canonical order so equal sets are laid out identically
        elements = sorted(
            ((_encode(item, encoded), item) for item in value),
            key=lambda pair: pair[0],
        )
        rebuilt = frozenset([_rebuild(item, memo, encoded)
                             for _, item in elements])
    memo[id(value)] = (value, rebuilt)
    return rebuilt


def canonical_state(state: State, memo: Optional[Memo] = None,
                    encoded: Optional[Memo] = None) -> State:
    """An equal state whose containers iterate in canonical order
    (``memo``/``encoded`` as for :func:`canonical_value`)."""
    memo = {} if memo is None else memo
    encoded = {} if encoded is None else encoded
    return State({
        name: _rebuild(state._vars[name], memo, encoded)
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


def edge_fingerprint(src_fp: int, label: ActionLabel, dst_fp: int) -> int:
    """Stable fingerprint of one verified transition, from its endpoints'
    state fingerprints and its label: the ``edge_fp`` of a traced
    ``runner.step`` and of fuzz coverage alike."""
    return fingerprint_value((src_fp, label.name, label.params, dst_fp))
