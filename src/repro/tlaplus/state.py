"""States and action labels for the model checker.

A :class:`State` is an immutable assignment of values to the spec's
variables — exactly what one node of TLC's state-space graph holds.  An
:class:`ActionLabel` is the label on an edge: the action name plus the
parameter binding that fired it (e.g. ``RequestVote(i=n1, j=n2)``).
"""

from __future__ import annotations

from operator import is_not
from typing import Any, Dict, Iterator, Mapping, Tuple

from .values import FrozenDict, ValueTable, freeze, thaw

__all__ = ["State", "ActionLabel"]


class State:
    """An immutable variable assignment with attribute-style access.

    Actions read variables as attributes (``state.currentTerm``) to stay
    close to the TLA+ source they transcribe.  States hash and compare
    structurally, which is what lets the checker deduplicate them.

    The instance ``__dict__`` *is* the variable mapping's dict, so a
    variable read is a plain attribute lookup; this is also why a
    variable may not take the name of a ``State`` method.
    """

    __slots__ = ("_vars", "_hash", "__dict__")

    def __init__(self, variables: Mapping[str, Any]):
        frozen = FrozenDict({name: freeze(value) for name, value in variables.items()})
        shadowed = _METHODS.intersection(frozen)
        if shadowed:
            raise ValueError(f"variable name(s) {sorted(shadowed)} would "
                             f"shadow State methods")
        self._bind(frozen)

    def _bind(self, frozen: FrozenDict) -> None:
        object.__setattr__(self, "_vars", frozen)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "__dict__", frozen._data)

    # -- access ---------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # only reached when no variable of that name exists
        raise AttributeError(f"state has no variable {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("State is immutable")

    def __getitem__(self, name: str) -> Any:
        return self._vars[name]

    def get(self, name: str, default: Any = None) -> Any:
        return self._vars.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def variables(self) -> Tuple[str, ...]:
        """Variable names, sorted."""
        return tuple(sorted(self._vars))

    def items(self) -> Iterator[Tuple[str, Any]]:
        for name in sorted(self._vars):
            yield name, self._vars[name]

    def as_dict(self) -> Dict[str, Any]:
        """A plain (thawed) dict copy, convenient for assertions and dumps."""
        return {name: thaw(value) for name, value in self._vars.items()}

    # -- functional update ------------------------------------------------------
    def with_updates(self, updates: Mapping[str, Any]) -> "State":
        """Return the successor state; variables absent from ``updates`` are UNCHANGED."""
        if not updates:
            return self
        merged = dict(self.__dict__)
        for name, value in updates.items():
            if name not in merged:
                raise KeyError(f"action assigned unknown variable {name!r}")
            merged[name] = freeze(value)
        # every value is frozen now: build the successor without
        # __init__'s second freeze of each variable
        successor = object.__new__(State)
        successor._bind(FrozenDict(merged))
        return successor

    def _interned(self, table: ValueTable) -> "State":
        """This state with every value replaced by its representative in
        ``table``; ``self`` when every value already is one."""
        variables = self.__dict__
        shared = table.intern_items(variables)
        if not any(map(is_not, shared.values(), variables.values())):
            return self
        interned = object.__new__(State)
        interned._bind(FrozenDict._wrap(shared, self._vars._hash))
        object.__setattr__(interned, "_hash", self._hash)
        return interned

    # -- identity -----------------------------------------------------------------
    def __reduce__(self):
        # slots pickling would setattr on an immutable object; rebuild from
        # the variable mapping instead (freeze passes frozen values through)
        return (State, (dict(self._vars),))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._vars)
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._vars == other._vars

    def __repr__(self) -> str:
        body = " /\\ ".join(f"{name}={value!r}" for name, value in self.items())
        return f"State({body})"


_METHODS = frozenset(name for name in vars(State) if not name.startswith("_"))


class ActionLabel:
    """The label of a state-graph edge: action name + parameter binding."""

    __slots__ = ("name", "params", "_hash")

    def __init__(self, name: str, params: Mapping[str, Any] = ()):  # type: ignore[assignment]
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", FrozenDict(
            {k: freeze(v) for k, v in dict(params).items()}
        ))
        object.__setattr__(self, "_hash", hash((name, self.params)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ActionLabel is immutable")

    def __reduce__(self):
        # slots pickling would setattr on an immutable object; rebuild instead
        return (ActionLabel, (self.name, dict(self.params)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if self is other:  # interned labels: the common case
            return True
        if not isinstance(other, ActionLabel):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __repr__(self) -> str:
        if not self.params:
            return f"{self.name}()"
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items(), key=lambda kv: str(kv[0])))
        return f"{self.name}({body})"
