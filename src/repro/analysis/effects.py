"""Static effect analysis of specification actions (``mocket analyze``).

Spec actions are pure Python functions ``fn(state, const, **params) ->
update-dict``; their *effect signatures* are therefore statically
extractable from source with :mod:`ast`:

* the **read set** — spec variables touched via ``state.x`` /
  ``state["x"]`` (including reads one call deep inside helpers that
  receive the bare ``state``, like the Raft spec's ``fold_update_term``),
* the **write set** — the keys of every returned update dict, including
  guard-dependent partial writes (an action that returns different
  dicts on different branches *may* write the union of their keys),
* the **const read set** — constants read as ``const["X"]`` or
  quantified over via ``from_constant``,
* **purity violations** — nondeterministic constructs the runtime
  determinism guards would catch one state too late: calls into
  ``random``/``time``/``os``-style modules, iteration over unordered
  containers (set literals / ``set()`` / ``frozenset()``), and mutation
  of objects reached through ``state``.

From the effect signatures a conservative **static independence
relation** follows: two actions with disjoint write/write and
write/read footprints commute (the update dict of each depends only on
variables the other never writes), so every diamond the graph-level POR
would discover for such a pair is guaranteed to close — the analysis
certifies commutativity *before* any state is enumerated, the static
analogue of Apalache's assignment analysis.  ``mocket analyze`` reports
it; POR itself (``repro.core.testgen.por``) verifies every
diamond's join on the graph and does not read it.

Extraction is deliberately conservative: anything the analyzer cannot
resolve (a ``state`` escaping into an unresolvable call, a non-literal
return value, ``**`` unpacking in an update dict) sets an *unknown*
flag, and unknown effects certify nothing.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Set,
    Tuple,
)

from ..tlaplus.spec import ActionDecl, Specification
from ..tlaplus.state import _METHODS as _STATE_METHODS

__all__ = [
    "PurityViolation",
    "ActionEffects",
    "SpecEffects",
    "IndependenceRelation",
    "analyze_spec",
    "analyze_action",
    "read_footprints",
]

# modules whose calls make an action nondeterministic across runs
_IMPURE_ROOTS = frozenset({
    "random", "time", "os", "uuid", "secrets", "datetime", "socket",
})
# bare names that are nondeterministic even without a module prefix
# (``from random import random`` / ``from time import time``)
_IMPURE_NAMES = frozenset({"random", "time", "urandom", "uuid4", "getrandbits"})
# method calls that mutate their receiver in place
_MUTATORS = frozenset({
    "append", "add", "update", "pop", "popitem", "remove", "discard",
    "clear", "extend", "insert", "setdefault", "sort", "reverse",
})
_MAX_HELPER_DEPTH = 5


@dataclass(frozen=True)
class PurityViolation:
    """One nondeterministic construct found inside an action body."""

    kind: str        # "impure-call" | "unordered-iteration" | "state-mutation"
    detail: str
    line: Optional[int] = None


@dataclass
class ActionEffects:
    """The statically extracted effect signature of one spec action."""

    name: str
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    const_reads: FrozenSet[str] = frozenset()
    violations: Tuple[PurityViolation, ...] = ()
    unknown_reads: bool = False
    unknown_writes: bool = False
    write_lines: Dict[str, Optional[int]] = field(default_factory=dict)
    file: Optional[str] = None
    line: Optional[int] = None

    @property
    def certifiable(self) -> bool:
        """Whether this signature may participate in static independence:
        fully known effects and no nondeterminism."""
        return not (self.unknown_reads or self.unknown_writes
                    or self.violations)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "const_reads": sorted(self.const_reads),
            "violations": [
                {"kind": v.kind, "detail": v.detail, "line": v.line}
                for v in self.violations
            ],
            "unknown_reads": self.unknown_reads,
            "unknown_writes": self.unknown_writes,
            "certifiable": self.certifiable,
        }


class IndependenceRelation:
    """A symmetric relation over action *names* certifying commutativity.

    ``certified(a, b)`` answers in O(1).  A certified pair's two
    interleavings must reach the same state wherever both exist;
    ``tests/core/test_independence_soundness.py`` checks that on the
    bundled models.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: FrozenSet[FrozenSet[str]]):
        self._pairs = pairs

    def certified(self, name_a: str, name_b: str) -> bool:
        return frozenset((name_a, name_b)) in self._pairs

    def pairs(self) -> List[Tuple[str, str]]:
        """Every certified pair as sorted name tuples, sorted."""
        return sorted(tuple(sorted(p)) for p in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return f"IndependenceRelation({len(self._pairs)} pairs)"


@dataclass
class SpecEffects:
    """Effect signatures for every action (and invariant) of one spec."""

    spec_name: str
    actions: Dict[str, ActionEffects] = field(default_factory=dict)
    invariant_reads: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    invariants_unknown: bool = False

    def independent(self, name_a: str, name_b: str) -> bool:
        """Conservative static commutativity of two distinct actions."""
        if name_a == name_b:
            return False
        ea = self.actions.get(name_a)
        eb = self.actions.get(name_b)
        if ea is None or eb is None:
            return False
        if not (ea.certifiable and eb.certifiable):
            return False
        return not (ea.writes & eb.writes
                    or ea.writes & eb.reads
                    or eb.writes & ea.reads)

    def independence(self) -> IndependenceRelation:
        names = sorted(self.actions)
        pairs: Set[FrozenSet[str]] = set()
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.independent(a, b):
                    pairs.add(frozenset((a, b)))
        return IndependenceRelation(frozenset(pairs))

    def conflicts(self, name_a: str, name_b: str) -> FrozenSet[str]:
        """The variables two actions conflict on (empty if independent
        or unknown)."""
        ea = self.actions.get(name_a)
        eb = self.actions.get(name_b)
        if ea is None or eb is None:
            return frozenset()
        return ((ea.writes & eb.writes) | (ea.writes & eb.reads)
                | (eb.writes & ea.reads))


# -- source retrieval -----------------------------------------------------------

#: id(code) -> (code, its node and start line, or None): a code object's
#: source cannot change under it, so each is parsed once per process
_NODES: Dict[int, Tuple[Any, Optional[Tuple[ast.AST, int]]]] = {}


def _fn_node(fn: Callable) -> Optional[Tuple[ast.AST, int]]:
    """The FunctionDef/Lambda node of ``fn`` plus its absolute start line.

    Returns None when the source cannot be retrieved (interactive
    definitions, builtins, wrappers); callers must then treat effects as
    unknown.
    """
    if hasattr(fn, "__wrapped__"):
        # ``inspect`` would return the wrapped function's source, which
        # says nothing of what the wrapper itself reads
        return None
    code = getattr(fn, "__code__", None)
    cached = _NODES.get(id(code))
    if cached is not None and cached[0] is code:
        return cached[1]
    result = _parse_fn(fn)
    if code is not None:
        _NODES[id(code)] = (code, result)
    return result


def _parse_fn(fn: Callable) -> Optional[Tuple[ast.AST, int]]:
    try:
        lines, start = inspect.getsourcelines(fn)
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        return None
    nodes = [candidate for candidate in ast.walk(tree)
             if isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))]
    if not nodes:
        return None
    node = nodes[0]
    if isinstance(node, ast.Lambda) and any(
            isinstance(other, ast.Lambda) and other.lineno == node.lineno
            for other in nodes[1:]):
        # a lambda's source is its whole line: with two on that line,
        # nothing says which one ``fn`` is
        return None
    return node, start


def _resolver_env(fn: Callable) -> Dict[str, Any]:
    """Names resolvable from ``fn``: globals overlaid with closure cells."""
    env: Dict[str, Any] = dict(getattr(fn, "__globals__", {}) or {})
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is not None and closure:
        for name, cell in zip(code.co_freevars, closure):
            try:
                env[name] = cell.cell_contents
            except ValueError:
                pass  # empty cell
    return env


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args]


# -- read ops -------------------------------------------------------------

#: (id(node), state name, const name) -> (node, ops): each function node's
#: read ops, found by walking its AST once per process
_READ_OPS: Dict[Tuple[int, Optional[str], Optional[str]],
                Tuple[ast.AST, Tuple[tuple, ...]]] = {}


def _read_ops(fnode: ast.AST, state_name: Optional[str],
              const_name: Optional[str]) -> Tuple[tuple, ...]:
    """What ``fnode`` reads, as ops in AST walk order.

    An op is ``("read", var)``, ``("const", name)``, ``("unknown",)``,
    ``("violation", kind, detail, node)`` or ``("call", func,
    state_positions, const_positions)`` for a call that receives the
    bare state.  Ops depend on the AST alone; the extractor resolves the
    calls against each action's own names when it replays them.
    """
    key = (id(fnode), state_name, const_name)
    cached = _READ_OPS.get(key)
    if cached is not None and cached[0] is fnode:
        return cached[1]
    ops = tuple(_walk_reads(fnode, state_name, const_name))
    _READ_OPS[key] = (fnode, ops)
    return ops


def _walk_reads(fnode: ast.AST, state_name: Optional[str],
                const_name: Optional[str]) -> Iterator[tuple]:
    consumed: Set[int] = set()   # state Name nodes accounted for
    for node in ast.walk(fnode):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == state_name:
            consumed.add(id(node.value))
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                yield ("violation", "state-mutation",
                       f"assignment to state.{node.attr}", node)
            elif node.attr in _STATE_METHODS or node.attr.startswith("_"):
                # ``state.get("x")``, ``state.items()``, ``state._vars``:
                # a State method or internal, not a variable
                yield ("unknown",)
            else:
                yield ("read", node.attr)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == state_name:
            consumed.add(id(node.value))
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    yield ("violation", "state-mutation",
                           f"assignment to state[{sl.value!r}]", node)
                else:
                    yield ("read", sl.value)
            else:
                yield ("unknown",)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == const_name:
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                yield ("const", sl.value)
        elif isinstance(node, ast.Call):
            yield from _call_ops(node, state_name, const_name, consumed)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            yield from _iteration_ops(node.iter)
        elif isinstance(node, ast.comprehension):
            yield from _iteration_ops(node.iter)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if _rooted_at(target, state_name):
                    yield ("violation", "state-mutation",
                           "assignment into an object reached through "
                           "state", node)
    # const.get("X")
    for node in ast.walk(fnode):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == const_name \
                and node.func.attr == "get" \
                and node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            yield ("const", node.args[0].value)
    # any remaining bare use of the state name escapes the analysis
    for node in ast.walk(fnode):
        if isinstance(node, ast.Name) and node.id == state_name \
                and id(node) not in consumed:
            yield ("unknown",)


def _call_ops(node: ast.Call, state_name: Optional[str],
              const_name: Optional[str], consumed: Set[int]) -> Iterator[tuple]:
    func = node.func
    # nondeterministic module calls
    root = _attr_root(func)
    if isinstance(func, ast.Attribute) and root in _IMPURE_ROOTS:
        yield ("violation", "impure-call", f"call into the {root!r} module",
               node)
    elif isinstance(func, ast.Name) and func.id in _IMPURE_NAMES:
        yield ("violation", "impure-call",
               f"call to nondeterministic {func.id!r}()", node)
    # in-place mutation of an object reached through state
    if isinstance(func, ast.Attribute) and func.attr in _MUTATORS \
            and _rooted_at(func.value, state_name):
        yield ("violation", "state-mutation",
               f".{func.attr}() on an object reached through state", node)
    # bare state/const passed into a call: the extractor resolves it
    state_positions = [idx for idx, arg in enumerate(node.args)
                       if isinstance(arg, ast.Name) and arg.id == state_name]
    if not state_positions:
        return
    for idx in state_positions:
        consumed.add(id(node.args[idx]))
    const_positions = [idx for idx, arg in enumerate(node.args)
                       if isinstance(arg, ast.Name) and arg.id == const_name]
    yield ("call", func, state_positions, const_positions)


def _iteration_ops(iter_node: ast.AST) -> Iterator[tuple]:
    if isinstance(iter_node, ast.Set):
        yield ("violation", "unordered-iteration",
               "iteration over a set literal", iter_node)
    elif isinstance(iter_node, ast.Call) \
            and isinstance(iter_node.func, ast.Name) \
            and iter_node.func.id in ("set", "frozenset"):
        yield ("violation", "unordered-iteration",
               f"iteration over {iter_node.func.id}(...)", iter_node)


def _attr_root(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _rooted_at(node: ast.AST, state_name: Optional[str]) -> bool:
    if state_name is None:
        return False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == state_name


# -- the extractor -----------------------------------------------------------

class _Extractor:
    """Accumulates one action's effect signature across helper calls."""

    def __init__(self, resolver: Mapping[str, Any], line_offset: int):
        self.resolver = resolver
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.const_reads: Set[str] = set()
        self.violations: List[PurityViolation] = []
        self.unknown_reads = False
        self.unknown_writes = False
        self.write_lines: Dict[str, Optional[int]] = {}
        self._line_offset = line_offset
        self._seen: Set[int] = set()

    def _line(self, node: ast.AST) -> Optional[int]:
        lineno = getattr(node, "lineno", None)
        if lineno is None:
            return None
        return self._line_offset + lineno - 1

    # -- entry points ---------------------------------------------------------

    def analyze(self, fn: Callable, collect_writes: bool) -> None:
        resolved = _fn_node(fn)
        if resolved is None:
            self.unknown_reads = True
            if collect_writes:
                self.unknown_writes = True
            return
        node, start = resolved
        self._line_offset = start
        params = _param_names(node)
        state_name = params[0] if params else None
        const_name = params[1] if len(params) > 1 else None
        self._seen.add(id(fn))
        self._analyze_node(node, state_name, const_name, depth=0,
                           collect_writes=collect_writes)

    # -- body analysis -----------------------------------------------------------

    def _analyze_node(self, fnode: ast.AST, state_name: Optional[str],
                      const_name: Optional[str], depth: int,
                      collect_writes: bool) -> None:
        """Analyze one function node with the given state/const aliases."""
        body = fnode.body if isinstance(fnode.body, list) else [fnode.body]
        local_defs = {
            stmt.name: stmt for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._scan_reads(fnode, state_name, const_name, local_defs, depth)
        if collect_writes:
            self._scan_writes(fnode, local_defs)

    # -- reads, purity and escapes --------------------------------------------

    def _scan_reads(self, fnode: ast.AST, state_name: Optional[str],
                    const_name: Optional[str],
                    local_defs: Mapping[str, ast.AST], depth: int) -> None:
        """Replay ``fnode``'s read ops, resolving the helpers it passes
        the bare state to against this action's names."""
        for op in _read_ops(fnode, state_name, const_name):
            kind = op[0]
            if kind == "read":
                self.reads.add(op[1])
            elif kind == "const":
                self.const_reads.add(op[1])
            elif kind == "unknown":
                self.unknown_reads = True
            elif kind == "violation":
                self.violations.append(
                    PurityViolation(op[1], op[2], self._line(op[3])))
            else:
                self._scan_call(op[1], op[2], op[3], local_defs, depth)

    def _scan_call(self, func: ast.AST, state_positions: List[int],
                   const_positions: List[int],
                   local_defs: Mapping[str, ast.AST], depth: int) -> None:
        """A call that receives the bare state: resolve and recurse."""
        if depth >= _MAX_HELPER_DEPTH:
            self.unknown_reads = True
            return
        callee = self._resolve_callee(func, local_defs)
        if callee is None:
            self.unknown_reads = True
            return
        self._recurse_into(callee, state_positions, const_positions, depth)

    def _recurse_into(self, callee: Any, state_positions: List[int],
                      const_positions: List[int], depth: int) -> None:
        """Analyze a helper that received the bare state as an argument."""
        if isinstance(callee, ast.AST):
            # a function defined locally inside the action body: its
            # parameters alias the forwarded state/const
            params = _param_names(callee)
            state_alias = (params[state_positions[0]]
                           if state_positions and state_positions[0] < len(params)
                           else None)
            const_alias = (params[const_positions[0]]
                           if const_positions and const_positions[0] < len(params)
                           else None)
            if state_positions and state_alias is None:
                self.unknown_reads = True
                return
            self._analyze_node(callee, state_alias, const_alias, depth + 1,
                               collect_writes=False)
            return
        if not inspect.isfunction(callee) or id(callee) in self._seen:
            if not inspect.isfunction(callee):
                self.unknown_reads = True
            return
        self._seen.add(id(callee))
        resolved = _fn_node(callee)
        if resolved is None:
            self.unknown_reads = True
            return
        node, start = resolved
        params = _param_names(node)
        state_alias = (params[state_positions[0]]
                       if state_positions and state_positions[0] < len(params)
                       else None)
        const_alias = (params[const_positions[0]]
                       if const_positions and const_positions[0] < len(params)
                       else None)
        if state_positions and state_alias is None:
            self.unknown_reads = True
            return
        saved = self._line_offset
        self._line_offset = start
        self._analyze_node(node, state_alias, const_alias, depth + 1,
                           collect_writes=False)
        self._line_offset = saved

    def _resolve_callee(self, func: ast.AST,
                        local_defs: Mapping[str, ast.AST]) -> Optional[Any]:
        if isinstance(func, ast.Name):
            if func.id in local_defs:
                return local_defs[func.id]
            return self.resolver.get(func.id)
        return None

    # -- writes -----------------------------------------------------------

    def _scan_writes(self, fnode: ast.AST,
                     local_defs: Mapping[str, ast.AST]) -> None:
        dict_locals = self._track_dict_locals(fnode)
        for stmt in self._walk_own(fnode):
            if isinstance(stmt, ast.Return):
                self._record_return(stmt.value, dict_locals, local_defs,
                                    depth=0)

    def _record_return(self, value: Optional[ast.AST],
                       dict_locals: Mapping[str, Optional[Set[str]]],
                       local_defs: Mapping[str, ast.AST],
                       depth: int) -> None:
        if value is None:
            return
        if isinstance(value, ast.Constant) and value.value is None:
            return
        if isinstance(value, ast.Dict):
            self._record_dict(value)
            return
        if isinstance(value, ast.Name):
            keys = dict_locals.get(value.id, "missing")
            if keys == "missing" or keys is None:
                self.unknown_writes = True
            else:
                for key in keys:
                    self.writes.add(key)
                    self.write_lines.setdefault(key, self._line(value))
            return
        if isinstance(value, ast.IfExp):
            self._record_return(value.body, dict_locals, local_defs, depth)
            self._record_return(value.orelse, dict_locals, local_defs, depth)
            return
        if isinstance(value, ast.Call) and depth < _MAX_HELPER_DEPTH:
            callee = self._resolve_callee(value.func, local_defs)
            node: Optional[ast.AST] = None
            offset = self._line_offset
            if isinstance(callee, ast.AST):
                node = callee
            elif inspect.isfunction(callee):
                resolved = _fn_node(callee)
                if resolved is not None:
                    node, offset = resolved
            if node is not None:
                saved = self._line_offset
                self._line_offset = offset
                inner_locals = self._track_dict_locals(node)
                inner_defs = {
                    stmt.name: stmt for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                } if isinstance(node.body, list) else {}
                for stmt in self._walk_own(node):
                    if isinstance(stmt, ast.Return):
                        self._record_return(stmt.value, inner_locals,
                                            inner_defs, depth + 1)
                self._line_offset = saved
                return
        self.unknown_writes = True

    def _record_dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is None:        # ``**unpacking``
                self.unknown_writes = True
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.writes.add(key.value)
                self.write_lines.setdefault(key.value, self._line(key))
            else:
                self.unknown_writes = True

    def _track_dict_locals(self, fnode: ast.AST) -> Dict[str, Optional[Set[str]]]:
        """Locals assigned a dict literal, tracked through const-string
        subscript stores (``updates["votesGranted"] = ...``); a local
        whose keys cannot be fully determined maps to None."""
        tracked: Dict[str, Optional[Set[str]]] = {}
        for node in self._walk_own(fnode):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if isinstance(node.value, ast.Dict):
                    keys: Optional[Set[str]] = set()
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) \
                                and isinstance(key.value, str):
                            keys.add(key.value)
                        else:
                            keys = None
                            break
                    tracked[name] = keys
                elif name in tracked:
                    tracked[name] = None   # re-bound to something else
            elif isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Subscript) \
                    and isinstance(node.targets[0].value, ast.Name):
                name = node.targets[0].value.id
                if name in tracked and tracked[name] is not None:
                    sl = node.targets[0].slice
                    if isinstance(sl, ast.Constant) \
                            and isinstance(sl.value, str):
                        tracked[name].add(sl.value)
                    else:
                        tracked[name] = None
        return tracked

    # -- small utilities -------------------------------------------------------

    @staticmethod
    def _walk_own(fnode: ast.AST):
        """Walk a function body in source order (pre-order DFS) without
        descending into nested defs.  Source order matters: tracking an
        update-dict local requires seeing ``updates = {...}`` before
        ``updates["x"] = ...``."""
        body = fnode.body if isinstance(fnode.body, list) else [fnode.body]
        stack = list(reversed(body))
        while stack:
            node = stack.pop()
            yield node
            children = [child for child in ast.iter_child_nodes(node)
                        if not isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef,
                                                  ast.Lambda))]
            stack.extend(reversed(children))


# -- per-declaration analysis -----------------------------------------------------

def _domain_effects(decl: ActionDecl, extractor: _Extractor) -> None:
    """Fold the parameter domains' reads into the action's read set.

    A binding drawn from ``in_flight(var)`` depends on the bag ``var``
    (another action writing the bag changes which bindings exist), so
    the bag is part of the action's read footprint.  ``from_constant``
    reads only the constant.  Any other callable domain is analyzed
    like a helper; an unanalyzable one makes the reads unknown.
    """
    for domain in decl.params.values():
        if not callable(domain):
            continue
        qualname = getattr(domain, "__qualname__", "")
        if qualname.startswith("from_constant.<locals>"):
            closure = getattr(domain, "__closure__", None)
            if closure:
                try:
                    value = closure[0].cell_contents
                except ValueError:
                    value = None
                if isinstance(value, str):
                    extractor.const_reads.add(value)
                    continue
            extractor.unknown_reads = True
        elif qualname.startswith("in_flight.<locals>"):
            closure = getattr(domain, "__closure__", None)
            if closure:
                try:
                    value = closure[0].cell_contents
                except ValueError:
                    value = None
                if isinstance(value, str):
                    extractor.reads.add(value)
                    continue
            extractor.unknown_reads = True
        else:
            resolved = _fn_node(domain)
            if resolved is None:
                extractor.unknown_reads = True
                continue
            node, start = resolved
            params = _param_names(node)
            saved = extractor._line_offset
            extractor._line_offset = start
            extractor._analyze_node(
                node,
                params[0] if params else None,
                params[1] if len(params) > 1 else None,
                depth=1, collect_writes=False)
            extractor._line_offset = saved


def _declared_effects(decl: ActionDecl, collect_writes: bool) -> _Extractor:
    """An extractor holding ``decl``'s effects: its body, its domains,
    and the bag its messages come from."""
    extractor = _Extractor(_resolver_env(decl.fn), line_offset=1)
    extractor.analyze(decl.fn, collect_writes=collect_writes)
    _domain_effects(decl, extractor)
    # a MESSAGE_RECEIVE binding's content came out of the bag: consuming
    # actions read the bag even if the body never names it explicitly
    if decl.message_var is not None:
        extractor.reads.add(decl.message_var)
    return extractor


def analyze_action(decl: ActionDecl) -> ActionEffects:
    """Extract the effect signature of one action declaration."""
    extractor = _declared_effects(decl, collect_writes=True)
    return ActionEffects(
        name=decl.name,
        reads=frozenset(extractor.reads),
        writes=frozenset(extractor.writes),
        const_reads=frozenset(extractor.const_reads),
        violations=tuple(extractor.violations),
        unknown_reads=extractor.unknown_reads,
        unknown_writes=extractor.unknown_writes,
        write_lines=dict(extractor.write_lines),
        file=decl.file,
        line=decl.line,
    )


def read_footprints(spec: Specification) -> Dict[str, FrozenSet[str]]:
    """The read set of every action the checker may memoize.

    An action qualifies when its reads are fully known (its body, the
    helpers it hands the state to, its parameter domains and its
    consumed bag), it has no purity violation, and it reads declared
    variables only: its enabled results are then a function of the
    values of that read set, the constants and nothing else.  No write
    scan is needed.  A read this analysis misses makes the checker
    replay a wrong result, so any doubt must set ``unknown_reads``.
    """
    footprints: Dict[str, FrozenSet[str]] = {}
    for name, decl in spec.actions.items():
        extractor = _declared_effects(decl, collect_writes=False)
        reads = frozenset(extractor.reads)
        if not (extractor.unknown_reads or extractor.violations) \
                and reads <= spec.variables.keys():
            footprints[name] = reads
    return footprints


def analyze_spec(spec: Specification) -> SpecEffects:
    """Extract effect signatures for every action and invariant of a spec."""
    effects = SpecEffects(spec_name=spec.name)
    for name, decl in spec.actions.items():
        effects.actions[name] = analyze_action(decl)
    for name, fn in spec.invariants.items():
        extractor = _Extractor(_resolver_env(fn), line_offset=1)
        extractor.analyze(fn, collect_writes=False)
        effects.invariant_reads[name] = frozenset(extractor.reads)
        if extractor.unknown_reads:
            effects.invariants_unknown = True
    return effects
