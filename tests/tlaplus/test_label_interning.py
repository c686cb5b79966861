"""Callable-domain labels are interned per exploration, never merged wrongly."""

from repro.tlaplus import (
    Specification,
    VarKind,
    bag_add,
    bag_remove,
    check,
    in_flight,
    to_dot,
)
from repro.tlaplus.dot import encode_value
from repro.tlaplus.spec import RunTable
from repro.tlaplus.values import EMPTY_BAG, FrozenDict


def _receive_spec(initial_messages):
    """One initial state per message; ``Recv`` consumes it."""
    spec = Specification("recv")
    spec.add_variable("origin")
    spec.add_variable("bag", kind=VarKind.MESSAGE)

    @spec.init
    def init(const):
        return [{"origin": origin, "bag": bag_add(EMPTY_BAG, message)}
                for origin, message in initial_messages]

    @spec.action(params={"m": in_flight("bag")})
    def Recv(state, const, m):
        return {"bag": bag_remove(state.bag, m)}

    return spec


def _two_senders_spec():
    """``SendA`` and ``SendB`` each build the same message afresh."""
    spec = Specification("senders")
    spec.add_variable("sender")
    spec.add_variable("bag", kind=VarKind.MESSAGE)

    @spec.init
    def init(const):
        return {"sender": None, "bag": EMPTY_BAG}

    def send(state, name):
        if state.sender is not None:
            return None
        return {"sender": name, "bag": bag_add(state.bag, {"x": 1, "y": (2,)})}

    spec.action(name="SendA")(lambda state, const: send(state, "A"))
    spec.action(name="SendB")(lambda state, const: send(state, "B"))

    @spec.action(params={"m": in_flight("bag")})
    def Recv(state, const, m):
        return {"bag": bag_remove(state.bag, m)}

    return spec


def _recv_labels(graph):
    return [edge.label for edge in graph.edges() if edge.label.name == "Recv"]


class TestLabelInterning:
    def test_equal_labels_from_distinct_messages_are_one_object(self):
        graph = check(_two_senders_spec()).graph
        bags = [state.bag for _, state in graph.states() if state.bag]
        (sent_a,), (sent_b,) = bags
        assert sent_a is sent_b  # the graph hash-conses its values
        first, second = _recv_labels(graph)
        assert first is second

    def test_equal_labels_that_render_differently_stay_apart(self):
        spec = _receive_spec([("int", FrozenDict({"x": 1})),
                              ("bool", FrozenDict({"x": True}))])
        graph = check(spec).graph
        one, true = _recv_labels(graph)
        assert one == true  # 1 == True, so the labels compare equal ...
        assert one is not true  # ... but are not merged
        assert encode_value(one.params) != encode_value(true.params)
        text = to_dot(graph)
        assert "('x', 1)" in text and "('x', True)" in text

    def test_table_needs_more_than_equality(self):
        table = RunTable()
        one = table.intern("Recv", {"m": FrozenDict({"x": 1})})
        true = table.intern("Recv", {"m": FrozenDict({"x": True})})
        again = table.intern("Recv", {"m": FrozenDict({"x": 1})})
        assert one == true and one is not true
        assert again is one
        # equal dicts built in another order iterate differently
        xy = table.intern("Recv", {"m": FrozenDict({"x": 1, "y": 0.0})})
        yx = table.intern("Recv", {"m": FrozenDict({"y": 0.0, "x": 1})})
        negative = table.intern("Recv", {"m": FrozenDict({"x": 1, "y": -0.0})})
        assert xy == yx == negative
        assert len({id(xy), id(yx), id(negative)}) == 3

    def test_table_does_not_outlive_one_check(self):
        spec = _two_senders_spec()
        first = check(spec).graph
        second = check(spec).graph
        assert _recv_labels(first)[0] == _recv_labels(second)[0]
        assert not {id(label) for label in _recv_labels(first)} & \
            {id(label) for label in _recv_labels(second)}

    def test_dot_is_unchanged_by_interning(self):
        spec = _two_senders_spec()
        graph = check(spec).graph
        # the un-interned successor relation labels the same edges alike
        for node_id, state in graph.states():
            plain = [(repr(label), graph.id_of(successor))
                     for label, successor in spec.enabled(state)]
            interned = [(repr(edge.label), edge.dst)
                        for edge in graph.out_edges(node_id)]
            assert plain == interned
