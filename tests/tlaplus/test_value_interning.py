"""A graph hash-conses its states' values, one object per alike class.

``StateGraph.add_state`` rebuilds a new state's values from the
representatives in the graph's own :class:`ValueTable`.  Equal values
that render differently (``1``/``True``, ``0.0``/``-0.0``, dicts built
in another order) must keep their own representatives, or DOT and
suite bytes would move.
"""

import pytest

from repro.systems.catalog import get_model
from repro.tlaplus import Specification, StateGraph, check
from repro.tlaplus.dot import to_dot
from repro.tlaplus.values import FrozenDict, ValueTable, alike


def _reachable(graph):
    """Every container reachable from the graph's states, by id."""
    seen = {}

    def walk(value):
        kind = type(value)
        if kind not in (FrozenDict, tuple, frozenset) or id(value) in seen:
            return
        seen[id(value)] = value
        for child in (value if kind is not FrozenDict
                      else [part for item in value.items() for part in item]):
            walk(child)

    for _, state in graph.states():
        walk(state._vars)
    return seen


def _alike_class(value):
    """A key equal for two values exactly when they are alike."""
    kind = type(value)
    if kind is FrozenDict:
        return kind, tuple((_alike_class(key), _alike_class(item))
                           for key, item in value.items())
    if kind is tuple or kind is frozenset:
        return kind, tuple(map(_alike_class, value))
    return kind, repr(value)


#: equal but not alike, each pair on purpose
_VARIANTS = [
    FrozenDict({"x": 1}), FrozenDict({"x": True}),
    FrozenDict({"x": 0.0}), FrozenDict({"x": -0.0}),
    FrozenDict({"a": 1, "b": 2}), FrozenDict({"b": 2, "a": 1}),
]


def _variants_spec():
    """One initial state per (tag, variant); ``index`` keeps states
    whose variants are equal apart.  Each variant is held twice per
    state and once per tag, always as a fresh object."""
    spec = Specification("variants")
    spec.add_variable("tag")
    spec.add_variable("index")
    spec.add_variable("val")

    @spec.init
    def init(const):
        return [{"tag": tag, "index": index,
                 "val": (dict(variant), [dict(variant)])}
                for tag in ("p", "q") for index, variant in enumerate(_VARIANTS)]

    return spec


class TestAlikeRule:
    def test_table_keeps_each_variant_apart(self):
        table = ValueTable()
        reps = [table.intern(FrozenDict(variant)) for variant in _VARIANTS]
        assert len({id(rep) for rep in reps}) == len(_VARIANTS)
        again = [table.intern(FrozenDict(variant)) for variant in _VARIANTS]
        assert all(map(lambda one, other: one is other, reps, again))
        for variant, rep in zip(_VARIANTS, reps):
            assert alike(variant, rep)

    def test_interning_shares_sub_values_and_mutates_nothing(self):
        table = ValueTable()
        inner = FrozenDict({"m": 1})
        first = table.intern((FrozenDict({"m": 1}), 5))
        second = table.intern(FrozenDict({"k": FrozenDict({"m": 1})}))
        assert first[0] is second["k"]
        outer = FrozenDict({"k": inner})
        shared = table.intern(outer)
        assert shared is second and outer["k"] is inner  # outer left as it was

    def test_variants_survive_check_and_to_dot(self):
        spec = _variants_spec()
        graph = check(spec).graph
        vals = {}
        for _, state in graph.states():
            vals.setdefault(state.tag, []).append(state.val)
        for p_val, q_val in zip(vals["p"], vals["q"]):
            assert p_val is q_val          # alike: one object
            assert p_val[0] is p_val[1][0]
        # equal but not alike: each variant its own representative
        assert len({id(val) for val in vals["p"]}) == len(_VARIANTS)
        # every node renders as its state does on its own, uninterned
        plain = spec.initial_states()
        assert graph.num_states == len(plain) and graph.num_edges == 0
        expected = [_alone(state).replace("  0 [", f"  {node_id} [", 1)
                    for node_id, state in enumerate(plain)]
        assert to_dot(graph).splitlines()[1:-1] == expected


def _alone(state):
    """``state``'s DOT node line, rendered in a graph of its own."""
    graph = StateGraph("variants")
    graph.add_state(state, initial=True)
    return to_dot(graph).splitlines()[1]


@pytest.fixture(scope="module")
def xraft_graph():
    return check(get_model("xraft")()).graph


class TestXraft:
    def test_one_object_per_alike_class(self, xraft_graph):
        seen = _reachable(xraft_graph)
        dicts = [value for value in seen.values() if type(value) is FrozenDict]
        # 21,999 FrozenDict references before hash-consing; 5,279 equal-
        # distinct values, of which 129 come in a second iteration order
        assert len(dicts) == len({_alike_class(value) for value in dicts}) == 5408

    def test_second_check_shares_no_interned_object(self, xraft_graph):
        again = check(get_model("xraft")()).graph
        first, second = _reachable(xraft_graph), _reachable(again)
        shared = [first[key] for key in first.keys() & second.keys()]
        # only the module's EMPTY_BAG and the empty-tuple singleton,
        # which no table made
        assert all(len(value) == 0 for value in shared)

    def test_checkpoint_resume_is_byte_identical(self, xraft_graph, tmp_path):
        from repro.engine import CheckpointStore

        class KillMidway(CheckpointStore):
            def save(self, payload):
                super().save(payload)
                if payload["level"] == 6:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            check(get_model("xraft")(), checkpoint=KillMidway(tmp_path))
        resumed = check(get_model("xraft")(), checkpoint=tmp_path,
                        resume=True).graph
        assert to_dot(resumed) == to_dot(xraft_graph)
        assert len([value for value in _reachable(resumed).values()
                    if type(value) is FrozenDict]) == 5408
