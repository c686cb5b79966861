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
from operator import is_, is_not
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "FrozenDict",
    "SCALAR_TYPES",
    "ValueTable",
    "alike",
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

    @classmethod
    def _wrap(cls, data: Dict[Any, Any], hash_: Optional[int]) -> "FrozenDict":
        """A ``FrozenDict`` around ``data`` itself, not a copy: the caller
        hands ``data`` over.  ``hash_`` is an equal value's hash, or None."""
        wrapped = cls.__new__(cls)
        object.__setattr__(wrapped, "_data", data)
        object.__setattr__(wrapped, "_hash", hash_)
        return wrapped

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


#: scalars whose equal values of one type always ``repr`` alike
_PLAIN_SCALARS = frozenset({type(None), bool, int, str, bytes})


def alike(one: Any, other: Any) -> bool:
    """Equal, with the same scalar types and the same container iteration
    order throughout, so that every rendering of the two is the same.

    ``1 == True``, ``0.0 == -0.0`` and two equal dicts built in another
    order are equal but not alike: one may stand in for the other in a
    hash lookup, never in an output.
    """
    if one is other:
        return True
    kind = type(one)
    if kind is not type(other):
        return False
    # hash-consed children are one object: each container settles that
    # case in C before it compares child by child
    if kind is FrozenDict:
        mine, theirs = one._data, other._data
        return len(mine) == len(theirs) and (
            (all(map(is_, mine, theirs))
             and all(map(is_, mine.values(), theirs.values())))
            or all(alike(key, other_key) and alike(value, other_value)
                   for (key, value), (other_key, other_value)
                   in zip(mine.items(), theirs.items())))
    if kind is tuple or kind is frozenset:
        return len(one) == len(other) and (
            all(map(is_, one, other)) or all(map(alike, one, other)))
    if kind in _PLAIN_SCALARS:
        return one == other
    return one == other and repr(one) == repr(other)


_CONTAINERS = frozenset({FrozenDict, tuple, frozenset})


class ValueTable:
    """Hash-consed frozen values: one representative per :func:`alike` class.

    :meth:`intern` returns the representative of a value's alike class,
    and rebuilds a value of a new class from representatives first, so
    every alike sub-value becomes one shared object: it is hashed once
    and compares by identity.  ``FrozenDict`` keys and values and tuple
    items are interned; a frozenset is interned whole, its elements as
    they are (rebuilding it could change its iteration order); scalars
    and other leaves stand for themselves.  A rebuilt container is a
    new object; none is ever mutated.

    The table is keyed by value, so equal values that are not alike
    share a slot: it holds the first representative, or the list of
    them once a second alike class turns up.  Frozen values are never
    lists, so the two cannot be confused.  A second index by ``id``
    answers "is this already a representative?" without hashing; it
    holds each representative, so no id is reused while the table
    lives.  A table belongs to one graph (or one exploration) and dies
    with it.
    """

    __slots__ = ("_reps", "_by_id")

    def __init__(self) -> None:
        self._reps: Dict[Any, Any] = {}   # value -> representative(s)
        self._by_id: Dict[int, Any] = {}  # id -> representative

    def intern(self, value: Any) -> Any:
        """The representative of ``value``'s alike class (first seen wins)."""
        kind = type(value)
        if kind not in _CONTAINERS or self._by_id.get(id(value)) is value:
            return value          # a scalar costs less than its table slot
        reps = self._reps
        entry = reps.get(value)
        bucket = entry if type(entry) is list else (entry,)
        if entry is not None:
            for rep in bucket:
                if alike(value, rep):
                    return rep
        # a new alike class: made of representatives, then one itself
        if kind is FrozenDict:
            old = value._data
            data = self.intern_items(old)
            if (any(map(is_not, data, old))
                    or any(map(is_not, data.values(), old.values()))):
                value = FrozenDict._wrap(data, value._hash)
        elif kind is tuple:
            items = tuple(map(self.intern, value))
            if any(map(is_not, items, value)):
                value = items
        if entry is None:
            reps[value] = value
        elif bucket is entry:
            entry.append(value)
        else:
            reps[value] = [entry, value]
        self._by_id[id(value)] = value
        return value

    def intern_items(self, data: Dict[Any, Any]) -> Dict[Any, Any]:
        """A copy of ``data`` with every key and value interned.

        Scalars and values that already are representatives are passed
        over inline: they are most of a state, and a call each would
        cost more than the interning."""
        intern, by_id, containers = self.intern, self._by_id, _CONTAINERS
        return {(key if type(key) not in containers or by_id.get(id(key)) is key
                 else intern(key)):
                (item if type(item) not in containers or by_id.get(id(item)) is item
                 else intern(item))
                for key, item in data.items()}


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
