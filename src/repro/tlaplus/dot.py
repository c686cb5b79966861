"""GraphViz DOT export/import for state-space graphs.

TLC can dump its state space as a DOT file, which Mocket's test-case
generator then parses (Section 4.2).  We reproduce that interface: the
checker's :class:`~repro.tlaplus.graph.StateGraph` round-trips through a
DOT file whose nodes carry the full encoded state and whose edges carry
the action label, so test generation can run either from an in-memory
graph or from a dump on disk.

Values are encoded as tagged Python literals so that ``ast.literal_eval``
can parse them back losslessly:

* ``FrozenDict`` → ``("$dict", ((k, v), ...))`` with sorted items,
* ``frozenset`` → ``("$set", (v, ...))`` sorted,
* tuples → ``("$tuple", (v, ...))``,
* scalars stay plain literals.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, List, Tuple

from .errors import DotParseError
from .graph import StateGraph
from .state import ActionLabel, State
from .values import FrozenDict

__all__ = ["encode_value", "decode_value", "to_dot", "write_dot", "parse_dot", "read_dot"]


def encode_value(value: Any) -> str:
    """Encode a frozen value as a tagged Python literal string."""
    return _Renderer().tagged(value)


_CONTAINERS = (FrozenDict, tuple, frozenset)


def _tuple_text(items: List[str]) -> str:
    """The ``repr`` of a tuple whose elements have the ``repr``s ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


class _Renderer:
    """The value texts of one rendering pass, each distinct container once.

    States share most of their sub-values with their neighbours, so
    ``to_dot`` renders each ``FrozenDict``/tuple/frozenset object once
    however many states hold it.  The memos are keyed by ``id()`` and
    each entry holds its object, so no id is reused by another object
    while the renderer lives.
    """

    __slots__ = ("_tagged", "_pretty")

    def __init__(self) -> None:
        self._tagged: Dict[int, Tuple[Any, str]] = {}
        self._pretty: Dict[int, Tuple[Any, str]] = {}

    def tagged(self, value: Any) -> str:
        """``repr`` of the tagged literal of ``value`` (module docstring):
        ``FrozenDict`` items sorted by the ``repr`` of their keys, set
        elements by their own text."""
        if not isinstance(value, _CONTAINERS):
            return repr(value)
        hit = self._tagged.get(id(value))
        if hit is not None:
            return hit[1]
        if isinstance(value, FrozenDict):
            items = sorted(value.items(), key=lambda kv: repr(kv[0]))
            text = "('$dict', %s)" % _tuple_text(
                [f"({self.tagged(k)}, {self.tagged(v)})" for k, v in items])
        elif isinstance(value, tuple):
            text = "('$tuple', %s)" % _tuple_text([self.tagged(v) for v in value])
        else:
            text = "('$set', %s)" % _tuple_text(sorted(map(self.tagged, value)))
        self._tagged[id(value)] = (value, text)
        return text

    def pretty(self, value: Any) -> str:
        """``repr`` with set elements and dict entries sorted.

        A ``frozenset``'s own ``repr`` follows its hash-table layout,
        which moves with ``PYTHONHASHSEED``; the human ``label=`` must not.
        """
        if not isinstance(value, _CONTAINERS):
            return repr(value)
        hit = self._pretty.get(id(value))
        if hit is not None:
            return hit[1]
        if isinstance(value, FrozenDict):
            entries = sorted((self.pretty(k), self.pretty(v))
                             for k, v in value.items())
            text = "FrozenDict({%s})" % ", ".join(f"{k}: {v}" for k, v in entries)
        elif isinstance(value, frozenset):
            text = ("frozenset({%s})" % ", ".join(sorted(map(self.pretty, value)))
                    if value else "frozenset()")
        else:
            body = ", ".join(map(self.pretty, value))
            text = f"({body},)" if len(value) == 1 else f"({body})"
        self._pretty[id(value)] = (value, text)
        return text


def decode_value(text: str) -> Any:
    """Parse a tagged literal string back into a frozen value."""
    try:
        literal = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise DotParseError(f"bad encoded value {text!r}: {exc}") from exc
    return _untag(literal)


def _untag(literal: Any) -> Any:
    if isinstance(literal, tuple):
        if len(literal) == 2 and literal[0] == "$dict":
            return FrozenDict({_untag(k): _untag(v) for k, v in literal[1]})
        if len(literal) == 2 and literal[0] == "$set":
            return frozenset(_untag(v) for v in literal[1])
        if len(literal) == 2 and literal[0] == "$tuple":
            return tuple(_untag(v) for v in literal[1])
        return tuple(_untag(v) for v in literal)
    return literal


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def to_dot(graph: StateGraph) -> str:
    """Render ``graph`` as DOT text (TLC ``-dump dot`` analogue)."""
    lines = [f'digraph "{_dot_escape(graph.spec_name or "state_space")}" {{']
    initial = set(graph.initial_ids)
    render = _Renderer()
    for node_id, state in graph.states():
        encoded = render.tagged(state._vars)  # FrozenDict of variables
        shape = ' shape=doublecircle' if node_id in initial else ""
        pretty = " /\\ ".join(f"{k}={render.pretty(v)}" for k, v in state.items())
        lines.append(
            f'  {node_id} [label="{_dot_escape(pretty)}" state="{_dot_escape(encoded)}"'
            f'{shape}];'
        )
    for edge in graph.edges():
        params = render.tagged(edge.label.params)
        lines.append(
            f'  {edge.src} -> {edge.dst} [label="{_dot_escape(edge.label.name)}"'
            f' params="{_dot_escape(params)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(graph: StateGraph, path_or_file) -> None:
    """Write ``graph`` to a DOT file (path string or open text file)."""
    text = to_dot(graph)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)


_NODE_RE = re.compile(
    r'^\s*(\d+)\s*\[label="(?P<label>(?:[^"\\]|\\.)*)"'
    r'\s+state="(?P<state>(?:[^"\\]|\\.)*)"(?P<rest>[^\]]*)\];\s*$'
)
_EDGE_RE = re.compile(
    r'^\s*(\d+)\s*->\s*(\d+)\s*\[label="(?P<label>(?:[^"\\]|\\.)*)"'
    r'\s+params="(?P<params>(?:[^"\\]|\\.)*)"\s*\];\s*$'
)
_HEADER_RE = re.compile(r'^\s*digraph\s+"(?P<name>(?:[^"\\]|\\.)*)"\s*\{\s*$')


def parse_dot(text: str) -> StateGraph:
    """Parse DOT text produced by :func:`to_dot` back into a StateGraph."""
    lines = text.splitlines()
    if not lines:
        raise DotParseError("empty DOT input")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise DotParseError(f"bad DOT header: {lines[0]!r}")
    graph = StateGraph(_dot_unescape(header.group("name")))

    nodes: Dict[int, State] = {}
    initial: List[int] = []
    edges: List[tuple] = []
    for line in lines[1:]:
        stripped = line.strip()
        if not stripped or stripped == "}":
            continue
        node_match = _NODE_RE.match(line)
        if node_match:
            node_id = int(node_match.group(1))
            encoded = _dot_unescape(node_match.group("state"))
            variables = decode_value(encoded)
            nodes[node_id] = State(dict(variables))
            if "doublecircle" in node_match.group("rest"):
                initial.append(node_id)
            continue
        edge_match = _EDGE_RE.match(line)
        if edge_match:
            src, dst = int(edge_match.group(1)), int(edge_match.group(2))
            name = _dot_unescape(edge_match.group("label"))
            params = decode_value(_dot_unescape(edge_match.group("params")))
            edges.append((src, dst, ActionLabel(name, dict(params))))
            continue
        raise DotParseError(f"unparseable DOT line: {line!r}")

    # Re-intern in id order so ids are preserved.
    for node_id in sorted(nodes):
        assigned = graph.add_state(nodes[node_id], initial=node_id in initial)
        if assigned != node_id:
            raise DotParseError(
                f"non-dense or duplicated node ids (expected {node_id}, got {assigned})"
            )
    for src, dst, label in edges:
        if src not in nodes or dst not in nodes:
            raise DotParseError(f"edge references unknown node: {src} -> {dst}")
        graph.add_edge(src, dst, label)
    return graph


def read_dot(path_or_file) -> StateGraph:
    """Read a DOT file (path string or open text file) into a StateGraph."""
    if hasattr(path_or_file, "read"):
        return parse_dot(path_or_file.read())
    with open(path_or_file, "r", encoding="utf-8") as handle:
        return parse_dot(handle.read())
