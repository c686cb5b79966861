"""One fixture spec per spec-rule code (MCK001-MCK007), each triggering
its rule exactly once."""

from repro.analysis import LintContext, run_lint
from repro.tlaplus.spec import (
    ActionKind, Specification, VarKind, from_constant, in_flight,
)

# A module-level value a fixture constant can alias (the detector must
# see constants used through globals, like raft.py's role model values).
SENTINEL = "sentinel-role"


def lint_codes(spec):
    result = run_lint(LintContext("fixture", spec))
    return [f.code for f in result.findings]


def test_mck001_unreferenced_variable():
    spec = Specification("s")
    spec.add_variable("n")
    spec.add_variable("ghost")

    @spec.init
    def init(const):
        return {"n": 0, "ghost": 0}

    @spec.action()
    def Incr(state, const):
        return {"n": state.n + 1}

    assert lint_codes(spec) == ["MCK001"]


def test_mck001_quiet_on_subscript_reference():
    spec = Specification("s")
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        return {"n": state["n"] + 1}

    assert lint_codes(spec) == []


def test_mck002_unknown_constant_domain():
    spec = Specification("s")
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action(params={"i": from_constant("Peers")})
    def Touch(state, const, i):
        return {"n": state.n + 1}

    assert lint_codes(spec) == ["MCK002"]


def test_mck003_in_flight_over_undeclared_variable():
    spec = Specification("s")
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action(params={"m": in_flight("bag")})
    def Recv(state, const, m):
        return {"n": state.n + 1}

    assert lint_codes(spec) == ["MCK003"]


def test_mck003_in_flight_over_state_variable():
    spec = Specification("s")
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action(params={"m": in_flight("n")})
    def Recv(state, const, m):
        return {"n": state.n + 1}

    assert lint_codes(spec) == ["MCK003"]


def test_mck004_invariant_unknown_variable():
    spec = Specification("s")
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        return {"n": state.n + 1}

    @spec.invariant()
    def Safe(state, const):
        return state.mystery >= 0

    assert lint_codes(spec) == ["MCK004"]


def test_mck004_quiet_on_state_api_and_declared(tmp_path):
    spec = Specification("s")
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        return {"n": state.n + 1}

    @spec.invariant()
    def Safe(state, const):
        return "n" in state.as_dict() and state.get("n") >= 0

    assert lint_codes(spec) == []


def test_mck005_unused_constant():
    spec = Specification("s", constants={"Limit": 3, "Unused": 99})
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1}

    assert lint_codes(spec) == ["MCK005"]


def test_mck005_quiet_on_value_used_through_global():
    spec = Specification("s", constants={"Limit": 3, "Role": SENTINEL})
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": SENTINEL}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1}

    assert lint_codes(spec) == []


def test_mck005_quiet_on_value_used_through_helper():
    limit = 3

    def gate(state):
        return state.n >= limit

    spec = Specification("s", constants={"Limit": limit})
    spec.add_variable("n")

    @spec.init
    def init(const):
        return {"n": 0}

    @spec.action()
    def Incr(state, const):
        if gate(state):
            return None
        return {"n": state.n + 1}

    assert lint_codes(spec) == []


def test_mck006_receive_without_message_wiring():
    spec = Specification("s")
    spec.add_variable("msgs", kind=VarKind.MESSAGE)

    @spec.init
    def init(const):
        return {"msgs": {}}

    @spec.action(kind=ActionKind.MESSAGE_RECEIVE)
    def Recv(state, const):
        return {"msgs": state.msgs}

    codes = lint_codes(spec)
    assert codes == ["MCK006"]


def test_mck007_message_var_of_wrong_kind():
    spec = Specification("s")
    spec.add_variable("n")
    spec.add_variable("msgs", kind=VarKind.MESSAGE)

    @spec.init
    def init(const):
        return {"n": 0, "msgs": {}}

    @spec.action(params={"m": in_flight("msgs")}, msg_param="m",
                 kind=ActionKind.MESSAGE_RECEIVE, message_var="n")
    def Recv(state, const, m):
        return {"n": state.n, "msgs": state.msgs}

    assert lint_codes(spec) == ["MCK007"]


def test_bundled_specs_are_clean():
    from repro.analysis.targets import all_targets, resolve

    for name in all_targets():
        assert lint_codes(resolve(name).spec) == [], name
