"""The TLA+-style specification DSL.

A :class:`Specification` plays the role of a TLA+ module instantiated
with concrete constants (a TLC "model"):

* *constants* are fixed values assigned before checking (``CONSTANTS``),
* *variables* are declared with a category from Section 4.1.1 of the
  paper (state-related, message-related, action counter, auxiliary),
* *actions* are pure functions ``fn(state, const, **params)`` returning
  either ``None`` (the action is not enabled for this binding) or a dict
  of variable updates (variables not mentioned are ``UNCHANGED``),
* *parameter domains* encode the existential quantifiers of ``Next``
  (``∃ i ∈ Server : Timeout(i)``); a domain is a static iterable or a
  callable ``(state, const) -> iterable`` for domains that depend on the
  current state (e.g. the in-flight message bag),
* *invariants* are predicates checked on every reached state.

Example::

    spec = Specification("counter", constants={"Limit": 3})
    spec.add_variable("n", kind=VarKind.STATE)

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1}
"""

from __future__ import annotations

import enum
import itertools
from operator import is_, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import ActionError, SpecError
from .state import ActionLabel, State
from .values import ValueTable, freeze

__all__ = [
    "VarKind",
    "ActionKind",
    "VariableDecl",
    "ActionDecl",
    "RunTable",
    "Specification",
    "from_constant",
    "in_flight",
]


class VarKind(enum.Enum):
    """Variable categories from Section 4.1.1 of the paper."""

    STATE = "state"            # mapped to implementation fields, checked
    MESSAGE = "message"        # checked against the testbed's message sets
    COUNTER = "counter"        # restricts model checking only; never mapped
    AUXILIARY = "auxiliary"    # spec-internal bookkeeping; never mapped


class ActionKind(enum.Enum):
    """Action categories from Section 4.1.2 of the paper."""

    SINGLE_NODE = "single_node"
    MESSAGE_SEND = "message_send"
    MESSAGE_RECEIVE = "message_receive"
    FAULT = "fault"
    USER_REQUEST = "user_request"


Domain = Callable[[State, Mapping[str, Any]], Iterable[Any]]


def from_constant(name: str) -> Domain:
    """Domain helper: quantify over the constant ``name`` (e.g. ``Server``)."""

    def domain(state: State, const: Mapping[str, Any]) -> Iterable[Any]:
        return const[name]

    # state-independent: the spec resolves it once into the action's
    # binding table instead of calling it per state
    domain.constant = name  # type: ignore[attr-defined]
    return domain


def in_flight(message_var: str) -> Domain:
    """Domain helper: quantify over the distinct messages in a message bag.

    Matches TLC's ``∃ m ∈ DOMAIN messages``: a message duplicated in the
    bag yields a single binding (handling it once per enabled edge).
    """

    def domain(state: State, const: Mapping[str, Any]) -> Iterable[Any]:
        return list(state[message_var].keys())

    return domain


class VariableDecl:
    """Declaration of one spec variable."""

    __slots__ = ("name", "kind", "per_node", "doc")

    def __init__(self, name: str, kind: VarKind, per_node: bool, doc: str):
        self.name = name
        self.kind = kind
        self.per_node = per_node
        self.doc = doc

    def __repr__(self) -> str:
        return f"VariableDecl({self.name!r}, {self.kind.value}, per_node={self.per_node})"


class ActionDecl:
    """Declaration of one spec action (a disjunct of ``Next``)."""

    __slots__ = ("name", "fn", "params", "kind", "msg_param", "message_var",
                 "doc", "file", "line")

    def __init__(
        self,
        name: str,
        fn: Callable[..., Optional[Mapping[str, Any]]],
        params: Mapping[str, Any],
        kind: ActionKind,
        msg_param: Optional[str],
        message_var: Optional[str],
        doc: str,
    ):
        self.name = name
        self.fn = fn
        self.params = dict(params)
        self.kind = kind
        self.msg_param = msg_param
        self.message_var = message_var
        self.doc = doc
        # source anchor for static analysis (repro.analysis.effects) and
        # lint findings; None for callables without a code object
        code = getattr(fn, "__code__", None)
        self.file: Optional[str] = code.co_filename if code else None
        self.line: Optional[int] = code.co_firstlineno if code else None

    def __repr__(self) -> str:
        return f"ActionDecl({self.name!r}, kind={self.kind.value})"


class _BindingTable:
    """One action's parameter bindings, resolved as far as the constants allow.

    Static and ``from_constant`` domains do not depend on the state, so
    they are listed once.  When no domain does, ``rows`` is the whole
    table: every ``(binding, label)`` pair in emission order, each label
    built once and shared by every edge it labels.  ``in_flight`` and
    other callable domains are evaluated per state, and their rows carry
    no label (``None``) until the binding turns out to be enabled.
    """

    __slots__ = ("names", "domains", "rows")

    def __init__(self, decl: ActionDecl, const: Mapping[str, Any]):
        self.names = tuple(decl.params)
        self.domains: List[Any] = []
        for domain in decl.params.values():
            if hasattr(domain, "constant"):
                domain = const[domain.constant]
            self.domains.append(domain if callable(domain) else list(domain))
        self.rows: Optional[List[Tuple[Dict[str, Any], Optional[ActionLabel]]]] = None
        if not any(callable(domain) for domain in self.domains):
            self.rows = [(binding, ActionLabel(decl.name, binding))
                         for binding in self._product(self.domains)]

    def _product(self, domains: List[Iterable[Any]]) -> List[Dict[str, Any]]:
        """Every binding, the cartesian product of the domains in order."""
        return [dict(zip(self.names, combo))
                for combo in itertools.product(*domains)]

    def bindings(self, state: State, const: Mapping[str, Any]
                 ) -> List[Tuple[Dict[str, Any], Optional[ActionLabel]]]:
        if self.rows is not None:
            return self.rows
        return [(binding, None) for binding in self._product(
            [domain(state, const) if callable(domain) else domain
             for domain in self.domains])]


class _ActionMemo:
    """One action's enabled results, keyed by the values it reads.

    ``key`` maps a state's variable dict to the values of the action's
    read set: the bare value for one read, a tuple for several.  An
    entry is ``(key, results)``, ``results`` the action's enabled
    ``(label, updates)`` pairs in binding order, and it serves only a
    key whose values are the entry's own objects.  Keys that are equal
    but not identical (``1`` vs ``True``, dicts built in another order)
    share a dict slot, which then holds a list of their entries.
    """

    __slots__ = ("key", "single", "slots")

    def __init__(self, reads: Tuple[str, ...]):
        self.key: Callable[[Dict[str, Any]], Any] = (
            itemgetter(*reads) if reads else _no_reads)
        self.single = len(reads) == 1
        self.slots: Dict[Any, Any] = {}   # key -> entry, or list of entries

    def find(self, bucket: List[tuple], key: Any) -> Optional[tuple]:
        """The entry of a shared slot whose key is ``key`` itself."""
        for entry in bucket:
            if (entry[0] is key if self.single
                    else all(map(is_, entry[0], key))):
                return entry
        return None

    def store(self, key: Any, slot: Any, results: tuple) -> None:
        """File ``key``'s results in its slot, found holding ``slot``."""
        entry = (key, results)
        if slot is None:
            self.slots[key] = entry
        elif type(slot) is list:
            slot.append(entry)
        else:
            self.slots[key] = [slot, entry]

    def __len__(self) -> int:
        return sum(len(slot) if type(slot) is list else 1
                   for slot in self.slots.values())


def _no_reads(variables: Dict[str, Any]) -> tuple:
    return ()


class RunTable:
    """One exploration's shared work: action labels and the action memo.

    **Labels.** An ``in_flight`` domain yields the state's own message
    objects, and one message reaches ``enabled`` as many equal objects
    built along different paths.  A binding is looked up by the
    identity of its values first, then by value through a
    :class:`ValueTable`: labels share an object only when their params
    are :func:`alike`, so labels that compare equal but render
    differently (``1`` vs ``True`` in a message field) stay apart.  Each
    entry holds the values whose ``id``s key it, so no id is reused
    while the table lives.

    **Memo.** ``footprints`` maps an action name to its read set (the
    checker passes :func:`repro.analysis.effects.read_footprints`); an
    action absent from it is evaluated on every expansion.  A memoized
    action's enabled results are stored under the values its read set
    has in the expanded state and replayed, in binding order, for every
    later state whose read values are the *same objects*; an equal but
    not identical key (``1`` vs ``True``) is a miss and gets an entry of
    its own.  Every entry holds its key's values, so identities stay
    unique while the table lives.  Stored updates are interned through
    ``values`` (the graph's own :class:`ValueTable`), so successors are
    built from representatives and the memo holds no copies.

    The checker makes one table per run; ``hits`` and ``misses`` count
    memoized (state, action) pairs replayed and evaluated.
    """

    __slots__ = ("_by_id", "_by_value", "_labels", "_memos", "_values",
                 "hits", "misses")

    def __init__(self, footprints: Optional[Mapping[str, Iterable[str]]] = None,
                 values: Optional[ValueTable] = None) -> None:
        self._by_id: Dict[tuple, Tuple[tuple, ActionLabel]] = {}
        # id of an interned ``(name, *values)`` -> its label
        self._by_value: Dict[int, ActionLabel] = {}
        self._labels = ValueTable()
        self._memos: Dict[str, _ActionMemo] = {
            name: _ActionMemo(tuple(sorted(reads)))
            for name, reads in (footprints or {}).items()}
        self._values = values if values is not None else ValueTable()
        self.hits = 0
        self.misses = 0

    def intern(self, name: str, binding: Dict[str, Any]) -> ActionLabel:
        key = (name, *map(id, binding.values()))
        entry = self._by_id.get(key)
        if entry is None:
            values = tuple(binding.values())
            frozen = self._labels.intern((name, *map(freeze, values)))
            label = self._by_value.get(id(frozen))
            if label is None:
                label = self._by_value[id(frozen)] = ActionLabel(
                    name, dict(zip(binding, frozen[1:])))
            entry = self._by_id[key] = (values, label)
        return entry[1]

    def share(self, updates: Mapping[str, Any]) -> Dict[str, Any]:
        """``updates`` frozen, each value its representative in the
        graph's value table."""
        intern = self._values.intern
        return {name: intern(freeze(value)) for name, value in updates.items()}

    @property
    def entries(self) -> int:
        """Memo entries stored so far, over every action."""
        return sum(map(len, self._memos.values()))


class Specification:
    """A TLA+ module instantiated with concrete constants."""

    def __init__(self, name: str, constants: Optional[Mapping[str, Any]] = None):
        self.name = name
        self.constants: Dict[str, Any] = {
            k: freeze(v) for k, v in dict(constants or {}).items()
        }
        self.variables: Dict[str, VariableDecl] = {}
        self.actions: Dict[str, ActionDecl] = {}
        self.invariants: Dict[str, Callable[[State, Mapping[str, Any]], bool]] = {}
        self._init_fn: Optional[Callable[..., Any]] = None
        # per-action binding tables and the constants they were derived from
        self._tables: Optional[List[Tuple[ActionDecl, _BindingTable]]] = None
        self._tables_constants: Dict[str, Any] = {}

    # -- declaration -----------------------------------------------------------
    def add_variable(
        self,
        name: str,
        kind: VarKind = VarKind.STATE,
        per_node: bool = False,
        doc: str = "",
    ) -> VariableDecl:
        """Declare a variable.  ``per_node=True`` marks a function over nodes
        (``[s \\in Server |-> ...]``) whose runtime value is assembled from
        per-node snapshots by the state checker."""
        if name in self.variables:
            raise SpecError(f"duplicate variable {name!r} in spec {self.name!r}")
        decl = VariableDecl(name, kind, per_node, doc)
        self.variables[name] = decl
        return decl

    def init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Register the ``Init`` predicate.

        ``fn(const)`` must return a dict assigning every declared variable,
        or a list of such dicts when ``Init`` is a disjunction.
        """
        if self._init_fn is not None:
            raise SpecError(f"spec {self.name!r} already has an Init")
        self._init_fn = fn
        return fn

    def action(
        self,
        name: Optional[str] = None,
        params: Optional[Mapping[str, Any]] = None,
        kind: ActionKind = ActionKind.SINGLE_NODE,
        msg_param: Optional[str] = None,
        message_var: Optional[str] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering an action (one disjunct of ``Next``).

        ``msg_param`` names the parameter bound to the consumed message for
        ``MESSAGE_RECEIVE`` actions; ``message_var`` names the bag variable
        the message travels through.
        """

        def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
            action_name = name or fn.__name__
            if action_name in self.actions:
                raise SpecError(f"duplicate action {action_name!r} in spec {self.name!r}")
            if msg_param is not None and msg_param not in (params or {}):
                raise SpecError(
                    f"action {action_name!r}: msg_param {msg_param!r} is not a parameter"
                )
            if message_var is not None and message_var not in self.variables:
                raise SpecError(
                    f"action {action_name!r}: unknown message variable {message_var!r}"
                )
            self.actions[action_name] = ActionDecl(
                name=action_name,
                fn=fn,
                params=params or {},
                kind=kind,
                msg_param=msg_param,
                message_var=message_var,
                doc=fn.__doc__ or "",
            )
            self._tables = None
            return fn

        return decorator

    def invariant(
        self, name: Optional[str] = None
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering an invariant predicate ``fn(state, const)``."""

        def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
            inv_name = name or fn.__name__
            if inv_name in self.invariants:
                raise SpecError(f"duplicate invariant {inv_name!r} in spec {self.name!r}")
            self.invariants[inv_name] = fn
            return fn

        return decorator

    # -- semantics --------------------------------------------------------------
    def initial_states(self) -> List[State]:
        """Evaluate ``Init`` and validate that every variable is assigned."""
        if self._init_fn is None:
            raise SpecError(f"spec {self.name!r} has no Init")
        result = self._init_fn(self.constants)
        assignments = result if isinstance(result, list) else [result]
        states = []
        for assignment in assignments:
            missing = set(self.variables) - set(assignment)
            extra = set(assignment) - set(self.variables)
            if missing:
                raise SpecError(f"Init leaves variables unassigned: {sorted(missing)}")
            if extra:
                raise SpecError(f"Init assigns undeclared variables: {sorted(extra)}")
            states.append(State(assignment))
        return states

    def apply(self, decl: ActionDecl, state: State, binding: Mapping[str, Any]) -> Optional[State]:
        """Apply one action binding to ``state``; None when not enabled."""
        updates = self._updates(decl, state, binding)
        return None if updates is None else state.with_updates(updates)

    def _updates(self, decl: ActionDecl, state: State,
                 binding: Mapping[str, Any]) -> Optional[Mapping[str, Any]]:
        """One binding's checked update dict; None when not enabled."""
        try:
            updates = decl.fn(state, self.constants, **binding)
        except Exception as exc:  # surface the action name in the traceback
            raise ActionError(f"action {decl.name!r} raised {exc!r} on {state!r}") from exc
        if updates is None:
            return None
        if not updates.keys() <= self.variables.keys():
            extra = set(updates) - set(self.variables)
            raise ActionError(
                f"action {decl.name!r} assigned undeclared variables: {sorted(extra)}"
            )
        return updates

    def enabled(self, state: State, table: Optional[RunTable] = None
                ) -> Iterator[Tuple[ActionLabel, State]]:
        """Yield every enabled ``(label, successor)`` pair from ``state``.

        This is the ``Next`` relation TLC iterates: all actions, all
        parameter bindings, skipping bindings whose precondition fails.
        Static-domain labels are always shared.  With a ``table`` (one
        per exploration), callable-domain labels are shared too, and an
        action the table memoizes is evaluated once per distinct
        projection of ``state`` onto its read set: a repeat replays the
        stored results without evaluating the domain or any guard.
        """
        const = self.constants
        memos = None if table is None else table._memos
        for decl, bindings in self._binding_tables():
            memo = memos.get(decl.name) if memos else None
            if memo is not None:
                key = memo.key(state.__dict__)
                slot = memo.slots.get(key)
                entry = memo.find(slot, key) if type(slot) is list else slot
                if entry is not None and (entry[0] is key if memo.single
                                          else all(map(is_, entry[0], key))):
                    table.hits += 1
                    for label, updates in entry[1]:
                        yield label, state.with_updates(updates)
                    continue
                table.misses += 1
                results = []
            for binding, label in bindings.bindings(state, const):
                updates = self._updates(decl, state, binding)
                if updates is not None:
                    if label is None:
                        label = (ActionLabel(decl.name, binding) if table is None
                                 else table.intern(decl.name, binding))
                    if memo is not None:
                        updates = table.share(updates)
                        results.append((label, updates))
                    yield label, state.with_updates(updates)
            # stored only once every binding was evaluated, so a consumer
            # that stops mid-action leaves no partial entry behind
            if memo is not None:
                memo.store(key, slot, tuple(results))

    def _binding_tables(self) -> List[Tuple[ActionDecl, _BindingTable]]:
        """The per-action binding tables, re-derived whenever a constant
        was rebound since they were built (``specs/raft.py`` adds its
        budget constants after construction), so no stale binding is
        ever served."""
        if self._tables is None or self._tables_constants != self.constants:
            self._tables_constants = dict(self.constants)
            self._tables = [(decl, _BindingTable(decl, self.constants))
                            for decl in self.actions.values()]
        return self._tables

    def check_invariants(self, state: State) -> Optional[str]:
        """Return the name of the first violated invariant, or None."""
        for inv_name, fn in self.invariants.items():
            if not fn(state, self.constants):
                return inv_name
        return None

    # -- introspection -------------------------------------------------------------
    def variables_of_kind(self, kind: VarKind) -> List[str]:
        return [name for name, decl in self.variables.items() if decl.kind is kind]

    def actions_of_kind(self, kind: ActionKind) -> List[str]:
        return [name for name, decl in self.actions.items() if decl.kind is kind]

    def __repr__(self) -> str:
        return (
            f"Specification({self.name!r}, {len(self.variables)} variables, "
            f"{len(self.actions)} actions)"
        )
