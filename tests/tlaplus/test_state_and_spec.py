"""Unit tests for State, ActionLabel and the Specification DSL."""

import pytest

from repro.tlaplus import (
    ActionError,
    ActionKind,
    ActionLabel,
    SpecError,
    Specification,
    State,
    VarKind,
    bag_add,
    bag_from_iterable,
    from_constant,
    in_flight,
)
from repro.tlaplus.values import EMPTY_BAG


class TestState:
    def test_attribute_access(self):
        state = State({"n": 1, "roles": {"a": "Leader"}})
        assert state.n == 1
        assert state.roles["a"] == "Leader"

    def test_values_are_frozen(self):
        state = State({"log": [1, 2]})
        assert state.log == (1, 2)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            State({"n": 1}).missing

    def test_getitem_and_contains(self):
        state = State({"n": 1})
        assert state["n"] == 1
        assert "n" in state
        assert "m" not in state
        assert state.get("m", 7) == 7

    def test_with_updates_is_functional(self):
        state = State({"n": 1, "m": 2})
        state2 = state.with_updates({"n": 10})
        assert state.n == 1
        assert state2.n == 10
        assert state2.m == 2  # UNCHANGED

    def test_with_updates_unknown_variable_raises(self):
        with pytest.raises(KeyError):
            State({"n": 1}).with_updates({"zz": 0})

    def test_empty_update_returns_self(self):
        state = State({"n": 1})
        assert state.with_updates({}) is state

    def test_structural_equality_and_hash(self):
        a = State({"n": 1, "s": {1, 2}})
        b = State({"s": {2, 1}, "n": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_as_dict_thaws(self):
        state = State({"log": [1], "s": {2}})
        assert state.as_dict() == {"log": [1], "s": {2}}

    def test_variables_sorted(self):
        assert State({"b": 1, "a": 2}).variables() == ("a", "b")


class TestActionLabel:
    def test_equality(self):
        assert ActionLabel("A", {"i": 1}) == ActionLabel("A", {"i": 1})
        assert ActionLabel("A", {"i": 1}) != ActionLabel("A", {"i": 2})
        assert ActionLabel("A") != ActionLabel("B")

    def test_hashable(self):
        labels = {ActionLabel("A", {"i": 1}), ActionLabel("A", {"i": 1})}
        assert len(labels) == 1

    def test_immutable(self):
        label = ActionLabel("A")
        with pytest.raises(AttributeError):
            label.name = "B"

    def test_repr_includes_params(self):
        assert repr(ActionLabel("A", {"i": "n1"})) == "A(i='n1')"
        assert repr(ActionLabel("A")) == "A()"


def _counter_spec(limit=2):
    spec = Specification("counter", constants={"Limit": limit})
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1}

    return spec


class TestSpecification:
    def test_initial_states(self):
        (state,) = _counter_spec().initial_states()
        assert state.n == 0

    def test_init_disjunction(self):
        spec = Specification("multi")
        spec.add_variable("n")

        @spec.init
        def init(const):
            return [{"n": 0}, {"n": 5}]

        assert [s.n for s in spec.initial_states()] == [0, 5]

    def test_init_missing_variable_raises(self):
        spec = Specification("bad")
        spec.add_variable("n")
        spec.add_variable("m")

        @spec.init
        def init(const):
            return {"n": 0}

        with pytest.raises(SpecError):
            spec.initial_states()

    def test_init_extra_variable_raises(self):
        spec = Specification("bad")
        spec.add_variable("n")

        @spec.init
        def init(const):
            return {"n": 0, "zz": 1}

        with pytest.raises(SpecError):
            spec.initial_states()

    def test_missing_init_raises(self):
        spec = Specification("noinit")
        spec.add_variable("n")
        with pytest.raises(SpecError):
            spec.initial_states()

    def test_duplicate_declarations_raise(self):
        spec = _counter_spec()
        with pytest.raises(SpecError):
            spec.add_variable("n")
        with pytest.raises(SpecError):

            @spec.action()
            def Incr(state, const):
                return None

    def test_enabled_enumerates_next(self):
        spec = _counter_spec(limit=1)
        (init_state,) = spec.initial_states()
        transitions = list(spec.enabled(init_state))
        assert len(transitions) == 1
        label, successor = transitions[0]
        assert label == ActionLabel("Incr")
        assert successor.n == 1
        # at the limit Incr is disabled
        assert list(spec.enabled(successor)) == []

    def test_action_assigning_undeclared_variable_raises(self):
        spec = Specification("bad")
        spec.add_variable("n")

        @spec.init
        def init(const):
            return {"n": 0}

        @spec.action()
        def Broken(state, const):
            return {"zz": 1}

        (state,) = spec.initial_states()
        with pytest.raises(ActionError):
            list(spec.enabled(state))

    def test_action_exception_is_wrapped(self):
        spec = Specification("boom")
        spec.add_variable("n")

        @spec.init
        def init(const):
            return {"n": 0}

        @spec.action()
        def Boom(state, const):
            raise RuntimeError("kaboom")

        (state,) = spec.initial_states()
        with pytest.raises(ActionError, match="Boom"):
            list(spec.enabled(state))

    def test_parameter_domains_from_constants(self):
        spec = Specification("param", constants={"Server": ("n1", "n2")})
        spec.add_variable("last")

        @spec.init
        def init(const):
            return {"last": None}

        @spec.action(params={"i": from_constant("Server")})
        def Touch(state, const, i):
            return {"last": i}

        (state,) = spec.initial_states()
        labels = sorted(repr(label) for label, _ in spec.enabled(state))
        assert labels == ["Touch(i='n1')", "Touch(i='n2')"]

    def test_rebound_constant_rederives_binding_table(self):
        # specs/raft.py writes budget constants after construction; a
        # table built before the write must not serve stale bindings
        spec = Specification("param", constants={"Server": ("n1", "n2")})
        spec.add_variable("last")

        @spec.init
        def init(const):
            return {"last": None}

        @spec.action(params={"i": from_constant("Server")})
        def Touch(state, const, i):
            return {"last": i}

        (state,) = spec.initial_states()
        assert [repr(label) for label, _ in spec.enabled(state)] == [
            "Touch(i='n1')", "Touch(i='n2')"]
        spec.constants["Server"] = ("n3",)
        assert [repr(label) for label, _ in spec.enabled(state)] == [
            "Touch(i='n3')"]

        @spec.action()
        def Reset(state, const):
            return {"last": None}

        assert [repr(label) for label, _ in spec.enabled(state)] == [
            "Touch(i='n3')", "Reset()"]

    def test_constant_domain_labels_are_shared_across_states(self):
        spec = Specification("shared", constants={"Server": ("n1",)})
        spec.add_variable("n")

        @spec.init
        def init(const):
            return {"n": 0}

        @spec.action(params={"i": from_constant("Server")})
        def Incr(state, const, i):
            return {"n": state.n + 1}

        (state,) = spec.initial_states()
        (first, successor), = spec.enabled(state)
        (second, _), = spec.enabled(successor)
        assert first is second

    def test_in_flight_domain_deduplicates_bag(self):
        spec = Specification("msgs")
        spec.add_variable("messages", kind=VarKind.MESSAGE)

        @spec.init
        def init(const):
            return {"messages": bag_add(bag_from_iterable(["m1"]), "m1")}

        @spec.action(
            params={"m": in_flight("messages")},
            kind=ActionKind.MESSAGE_RECEIVE,
            msg_param="m",
            message_var="messages",
        )
        def Receive(state, const, m):
            return {}

        (state,) = spec.initial_states()
        # "m1" is duplicated in the bag but yields a single binding.
        assert len(list(spec.enabled(state))) == 1

    def test_msg_param_must_be_declared(self):
        spec = Specification("bad")
        spec.add_variable("messages", kind=VarKind.MESSAGE)
        with pytest.raises(SpecError):

            @spec.action(kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                         message_var="messages")
            def Receive(state, const):
                return {}

    def test_message_var_must_exist(self):
        spec = Specification("bad")
        with pytest.raises(SpecError):

            @spec.action(params={"m": in_flight("nope")}, msg_param="m",
                         message_var="nope")
            def Receive(state, const, m):
                return {}

    def test_invariants(self):
        spec = _counter_spec(limit=3)

        @spec.invariant()
        def Bounded(state, const):
            return state.n <= 2

        good = State({"n": 2})
        bad = State({"n": 3})
        assert spec.check_invariants(good) is None
        assert spec.check_invariants(bad) == "Bounded"

    def test_kind_introspection(self):
        spec = Specification("kinds")
        spec.add_variable("s", kind=VarKind.STATE)
        spec.add_variable("msgs", kind=VarKind.MESSAGE)
        spec.add_variable("cnt", kind=VarKind.COUNTER)
        assert spec.variables_of_kind(VarKind.MESSAGE) == ["msgs"]
        assert spec.variables_of_kind(VarKind.COUNTER) == ["cnt"]

        @spec.init
        def init(const):
            return {"s": 0, "msgs": EMPTY_BAG, "cnt": 0}

        @spec.action(kind=ActionKind.FAULT)
        def Crash(state, const):
            return None

        assert spec.actions_of_kind(ActionKind.FAULT) == ["Crash"]
        assert spec.actions_of_kind(ActionKind.USER_REQUEST) == []
