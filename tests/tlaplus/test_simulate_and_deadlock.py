"""Tests for deadlock detection."""

from repro.tlaplus import Specification, check


def _counter_spec(limit=3, with_reset=True, violation_at=None):
    spec = Specification("sim", constants={"Limit": limit})
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1}

    if with_reset:
        @spec.action()
        def Reset(state, const):
            if state.n == 0:
                return None
            return {"n": 0}

    if violation_at is not None:
        @spec.invariant()
        def Bounded(state, const):
            return state.n < violation_at

    return spec


class TestDeadlockDetection:
    def test_dead_end_reported(self):
        result = check(_counter_spec(limit=2, with_reset=False))
        (deadlock,) = result.deadlocks()
        assert result.graph.state_of(deadlock).n == 2

    def test_live_spec_has_no_deadlocks(self):
        result = check(_counter_spec(limit=2, with_reset=True))
        assert result.deadlocks() == []

    def test_example_spec_never_deadlocks(self):
        from repro.specs import build_example_spec

        assert check(build_example_spec()).deadlocks() == []
