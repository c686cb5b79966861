"""Immutable values for the TLA+-style specification substrate.

TLC represents every state as an assignment of *values* to variables and
deduplicates states by fingerprint.  To make this work in Python, every
value stored in a state must be hashable and immutable.  This module
provides:

* :class:`FrozenDict` — an immutable, hashable mapping.  TLA+ functions
  (``[s \\in Server |-> 0]``) and records (``[mtype |-> ...]``) are both
  represented as ``FrozenDict``.
* :func:`freeze` / :func:`thaw` — recursive conversion between mutable
  Python containers and their immutable counterparts.
* Bag (multiset) helpers — the official Raft specification stores
  in-flight messages in a *bag* (message → count); ``bag_add`` /
  ``bag_remove`` / ``bag_count`` implement the same algebra over a
  ``FrozenDict``.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from typing import Any, Dict, Iterator, Tuple

__all__ = [
    "FrozenDict",
    "SCALAR_TYPES",
    "freeze",
    "thaw",
    "EMPTY_BAG",
    "bag_add",
    "bag_remove",
    "bag_count",
    "bag_contains",
    "bag_size",
    "bag_items",
    "bag_from_iterable",
    "is_bag",
]


class FrozenDict:
    """An immutable, hashable mapping with functional update helpers.

    ``FrozenDict`` is the workhorse value type of the checker: per-node
    spec variables (``currentTerm``), TLA+ records (messages) and bags
    are all ``FrozenDict`` instances.  Equality and hashing are
    order-insensitive, and ``repr`` is sorted so state dumps are stable.

    It implements the whole ``Mapping`` interface itself and is
    *registered* as a ``Mapping`` rather than derived from one: an ABC
    subclass would route every ``isinstance(x, FrozenDict)`` — the
    value layer's most frequent question — through ``ABCMeta``.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        data: Dict[Any, Any] = dict(*args, **kwargs)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_hash", None)

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    # the Mapping mixins would go through __getitem__ key by key; the
    # underlying dict is never mutated, so its own views are safe to share
    def get(self, key: Any, default: Any = None) -> Any:
        return self._data.get(key, default)

    def keys(self):
        return self._data.keys()

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    __reversed__ = None  # as for every Mapping: no sequence fallback

    # -- Hashing / equality -------------------------------------------------
    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._data.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FrozenDict):
            return self._data == other._data
        if isinstance(other, Mapping):
            return dict(self._data) == dict(other)
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        try:
            items = sorted(self._data.items(), key=lambda kv: repr(kv[0]))
        except TypeError:
            items = list(self._data.items())
        body = ", ".join(f"{k!r}: {v!r}" for k, v in items)
        return f"FrozenDict({{{body}}})"

    # -- Functional updates ---------------------------------------------------
    def set(self, key: Any, value: Any) -> "FrozenDict":
        """Return a copy with ``key`` bound to ``value`` (TLA+ ``EXCEPT``)."""
        data = dict(self._data)
        data[key] = freeze(value)
        return FrozenDict(data)

    def update(self, mapping: Mapping) -> "FrozenDict":
        """Return a copy with every key of ``mapping`` rebound."""
        data = dict(self._data)
        for key, value in mapping.items():
            data[key] = freeze(value)
        return FrozenDict(data)

    def remove(self, key: Any) -> "FrozenDict":
        """Return a copy without ``key``; missing keys are a no-op."""
        if key not in self._data:
            return self
        data = dict(self._data)
        del data[key]
        return FrozenDict(data)

    def apply(self, key: Any, fn: Any) -> "FrozenDict":
        """Return a copy with ``fn`` applied to the value at ``key``.

        Mirrors ``[f EXCEPT ![k] = fn(@)]``.
        """
        return self.set(key, fn(self._data[key]))


Mapping.register(FrozenDict)

#: exact types of the immutable scalars states are made of
SCALAR_TYPES = frozenset({type(None), bool, int, float, str, bytes})


def freeze(value: Any) -> Any:
    """Recursively convert ``value`` into an immutable, hashable form.

    dicts become :class:`FrozenDict`, lists/tuples become tuples, sets
    become frozensets.  Already-hashable leaves pass through unchanged.
    """
    if type(value) in SCALAR_TYPES or isinstance(value, FrozenDict):
        return value
    if isinstance(value, dict):
        return FrozenDict({freeze(k): freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    if not isinstance(value, Hashable):
        raise TypeError(f"cannot freeze unhashable value of type {type(value)!r}")
    return value


def thaw(value: Any) -> Any:
    """Inverse of :func:`freeze`: produce plain mutable Python containers.

    frozensets become sets, tuples become lists and ``FrozenDict`` becomes
    ``dict``.  ``thaw(freeze(x))`` equals ``x`` for values built from
    dict/list/set/scalar.
    """
    if isinstance(value, FrozenDict):
        out = {}
        for key, val in value.items():
            thawed_key = thaw(key)
            if not isinstance(thawed_key, Hashable):
                thawed_key = key  # keep container keys frozen (e.g. bag elements)
            out[thawed_key] = thaw(val)
        return out
    if isinstance(value, tuple):
        return [thaw(v) for v in value]
    if isinstance(value, frozenset):
        out_set = set()
        for val in value:
            thawed = thaw(val)
            out_set.add(thawed if isinstance(thawed, Hashable) else val)
        return out_set
    return value


# ---------------------------------------------------------------------------
# Bags (multisets).
#
# A bag is a FrozenDict mapping element -> positive count.  The official
# Raft spec models the network as a bag of messages so that duplicated
# messages are representable; we use the same encoding.
# ---------------------------------------------------------------------------

EMPTY_BAG = FrozenDict()


def is_bag(value: Any) -> bool:
    """Return True if ``value`` is structurally a bag (all counts >= 1)."""
    if not isinstance(value, FrozenDict):
        return False
    return all(isinstance(count, int) and count >= 1 for count in value.values())


def bag_add(bag: FrozenDict, element: Any, count: int = 1) -> FrozenDict:
    """Return ``bag`` with ``count`` extra copies of ``element``."""
    if count < 1:
        raise ValueError(f"bag_add count must be >= 1, got {count}")
    element = freeze(element)
    return bag.set(element, bag.get(element, 0) + count)

def bag_remove(bag: FrozenDict, element: Any, count: int = 1) -> FrozenDict:
    """Return ``bag`` with ``count`` copies of ``element`` removed.

    Raises ``KeyError`` if the bag holds fewer than ``count`` copies —
    removing a message that is not in flight is always a spec bug.
    """
    if count < 1:
        raise ValueError(f"bag_remove count must be >= 1, got {count}")
    element = freeze(element)
    have = bag.get(element, 0)
    if have < count:
        raise KeyError(f"bag holds {have} copies of {element!r}, cannot remove {count}")
    if have == count:
        return bag.remove(element)
    return bag.set(element, have - count)


def bag_count(bag: FrozenDict, element: Any) -> int:
    """Number of copies of ``element`` in ``bag``."""
    return bag.get(freeze(element), 0)


def bag_contains(bag: FrozenDict, element: Any) -> bool:
    """True if at least one copy of ``element`` is in ``bag``."""
    return bag_count(bag, element) >= 1


def bag_size(bag: FrozenDict) -> int:
    """Total number of elements (counting multiplicity)."""
    return sum(bag.values())


def bag_items(bag: FrozenDict) -> Iterator[Any]:
    """Iterate elements with multiplicity (an element with count 2 yields twice)."""
    for element, count in bag.items():
        for _ in range(count):
            yield element


def bag_from_iterable(elements: Any) -> FrozenDict:
    """Build a bag from an iterable of elements."""
    bag = EMPTY_BAG
    for element in elements:
        bag = bag_add(bag, element)
    return bag
