"""Unit tests for the static effect analyzer (repro.analysis.effects)."""

import functools
import inspect

import pytest

from repro.analysis.effects import analyze_action, analyze_spec, read_footprints
from repro.specs import build_example_spec
from repro.specs.raft import build_raft_spec
from repro.specs.zab import build_zab_spec
from repro.tlaplus.spec import ActionKind, Specification, from_constant, in_flight


def make_spec(constants=None):
    spec = Specification("fx", constants=constants or {"Server": ("a", "b")})
    spec.add_variable("x")
    spec.add_variable("y")
    spec.add_variable("msgs", kind=__import__(
        "repro.tlaplus.spec", fromlist=["VarKind"]).VarKind.MESSAGE)
    return spec


class TestReadWriteExtraction:
    def test_attribute_and_subscript_reads(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            return {"x": state.x + state["y"]}

        effects = analyze_action(spec.actions["A"])
        assert effects.reads == {"x", "y"}
        assert effects.writes == {"x"}
        assert effects.certifiable

    def test_none_return_and_partial_writes(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            if state.x > 0:
                return None
            if state.y:
                return {"x": 1}
            return {"x": 0, "y": 1}

        effects = analyze_action(spec.actions["A"])
        assert effects.writes == {"x", "y"}   # union over branches

    def test_updates_dict_dataflow(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            updates = {"x": state.x + 1}
            if state.y:
                updates["y"] = 0
            return updates

        effects = analyze_action(spec.actions["A"])
        assert effects.writes == {"x", "y"}
        assert not effects.unknown_writes

    def test_nested_def_return_resolution(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            def reject():
                return {"y": 0}
            if state.x:
                return reject()
            return {"x": 1}

        effects = analyze_action(spec.actions["A"])
        assert effects.writes == {"x", "y"}

    def test_const_reads(self):
        spec = make_spec({"Limit": 3, "Server": ("a",)})

        @spec.action()
        def A(state, const):
            if state.x >= const["Limit"]:
                return None
            return {"x": state.x + 1}

        assert analyze_action(spec.actions["A"]).const_reads == {"Limit"}


class TestUnknownFlags:
    def test_dict_unpacking_is_unknown(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            extra = {"y": 1}
            return {"x": 1, **extra}

        effects = analyze_action(spec.actions["A"])
        assert effects.unknown_writes
        assert not effects.certifiable

    def test_non_literal_return_is_unknown(self):
        spec = make_spec()

        def build(state):
            return {"x": state.x}

        @spec.action()
        def A(state, const):
            return dict(x=state.x)

        assert analyze_action(spec.actions["A"]).unknown_writes

    def test_state_escaping_to_unresolvable_call_is_unknown(self):
        spec = make_spec()

        @spec.action()
        def A(state, const, fn=len):
            fn(state)
            return {"x": 1}

        assert analyze_action(spec.actions["A"]).unknown_reads

    def test_dynamic_state_subscript_is_unknown(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            key = "x"
            return {"x": state[key]}

        assert analyze_action(spec.actions["A"]).unknown_reads


class TestStateMethodReads:
    """``state.<attr>`` is a variable read only when ``attr`` can be a
    variable: a ``State`` method or an underscore name is not one."""

    def test_read_through_get_is_unknown_not_independent(self):
        spec = make_spec()

        @spec.action()
        def ReadViaGet(state, const):
            return {"y": state.get("x")}

        @spec.action()
        def WriteX(state, const):
            return {"x": 1}

        effects = analyze_spec(spec)
        assert effects.actions["ReadViaGet"].unknown_reads
        assert "get" not in effects.actions["ReadViaGet"].reads
        assert not effects.independence().certified("ReadViaGet", "WriteX")
        assert "ReadViaGet" not in read_footprints(spec)

    def test_methods_and_internals_are_unknown(self):
        spec = make_spec()

        @spec.action()
        def Items(state, const):
            return {"y": len(list(state.items()))}

        @spec.action()
        def Variables(state, const):
            return {"y": state.variables()}

        @spec.action()
        def AsDict(state, const):
            return {"y": state.as_dict()["x"]}

        @spec.action()
        def WithUpdates(state, const):
            return {"y": state.with_updates({}).x}

        @spec.action()
        def Private(state, const):
            return {"y": state._vars["x"]}

        @spec.action()
        def Dunder(state, const):
            return {"y": state.__dict__["x"]}

        for name, effects in analyze_spec(spec).actions.items():
            assert effects.unknown_reads, name
        assert read_footprints(spec) == {}


class TestFootprintsForTheChecker:
    def test_known_reads_include_domains_and_bag(self):
        spec = make_spec()

        @spec.action(params={"m": in_flight("msgs")},
                     kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                     message_var="msgs")
        def Recv(state, const, m):
            return {"x": m}

        @spec.action(params={"i": from_constant("Server")})
        def Bump(state, const, i):
            return {"y": state.y + 1}

        assert read_footprints(spec) == {"Recv": {"msgs"}, "Bump": {"y"}}

    def test_unknown_impure_or_undeclared_reads_are_left_out(self):
        import random

        spec = make_spec()

        @spec.action()
        def Dynamic(state, const):
            return {"x": getattr(state, "y")}

        @spec.action()
        def Impure(state, const):
            return {"x": state.x + random.random()}

        @spec.action()
        def Undeclared(state, const):
            return {"x": state.nope}

        @spec.action()
        def Plain(state, const):
            return {"x": state.x}

        assert read_footprints(spec) == {"Plain": {"x"}}

    def test_wrapped_functions_are_unknown(self):
        spec = make_spec()

        def logged(fn):
            @functools.wraps(fn)
            def wrapper(state, const):
                state.y        # a read the wrapped source does not show
                return fn(state, const)
            return wrapper

        @spec.action()
        @logged
        def A(state, const):
            return {"x": state.x}

        assert analyze_action(spec.actions["A"]).unknown_reads
        assert read_footprints(spec) == {}

    def test_two_lambdas_on_one_line_are_unknown(self):
        spec = make_spec()
        a, b = (lambda state, const: {"x": state.x}), (lambda state, const: {"y": state.y})
        spec.action(name="A")(a)
        spec.action(name="B")(b)
        assert read_footprints(spec) == {}

    def test_source_is_parsed_once_per_code_object(self, monkeypatch):
        analyze_spec(build_raft_spec())
        calls = []
        original = inspect.getsourcelines
        monkeypatch.setattr(inspect, "getsourcelines",
                            lambda fn: calls.append(fn) or original(fn))
        fresh = build_raft_spec()     # new function objects, same code
        assert set(read_footprints(fresh)) == set(fresh.actions)
        analyze_spec(fresh)
        assert calls == []


class TestHelperTraversal:
    def test_module_level_helper_reads(self):
        spec = make_spec()

        def helper(st):
            return st.y + 1

        @spec.action()
        def A(state, const):
            return {"x": helper(state)}

        effects = analyze_action(spec.actions["A"])
        assert "y" in effects.reads
        assert not effects.unknown_reads

    def test_closure_helper_reads(self):
        spec = make_spec()

        def build():
            def helper(st):
                return st.y

            @spec.action()
            def A(state, const):
                return {"x": helper(state)}

        build()
        effects = analyze_action(spec.actions["A"])
        assert "y" in effects.reads
        assert not effects.unknown_reads


class TestDomains:
    def test_from_constant_domain_reads_constant(self):
        spec = make_spec()

        @spec.action(params={"i": from_constant("Server")})
        def A(state, const, i):
            return {"x": i}

        assert "Server" in analyze_action(spec.actions["A"]).const_reads

    def test_in_flight_domain_reads_bag(self):
        spec = make_spec()

        @spec.action(params={"m": in_flight("msgs")})
        def A(state, const, m):
            return {"x": m}

        assert "msgs" in analyze_action(spec.actions["A"]).reads

    def test_lambda_domain_reads(self):
        spec = make_spec()

        @spec.action(params={"i": lambda state, const: sorted(state.y)})
        def A(state, const, i):
            return {"x": i}

        effects = analyze_action(spec.actions["A"])
        assert "y" in effects.reads
        assert not effects.unknown_reads

    def test_message_var_counts_as_read(self):
        spec = make_spec()

        @spec.action(params={"m": in_flight("msgs")},
                     kind=ActionKind.MESSAGE_RECEIVE, msg_param="m",
                     message_var="msgs")
        def A(state, const, m):
            return {"x": 1}

        assert "msgs" in analyze_action(spec.actions["A"]).reads


class TestPurity:
    def test_random_call_is_flagged(self):
        import random as _random  # noqa: F401 — must resolve in the body
        spec = make_spec()

        @spec.action()
        def A(state, const):
            import random
            return {"x": random.random()}

        effects = analyze_action(spec.actions["A"])
        assert any(v.kind == "impure-call" for v in effects.violations)
        assert not effects.certifiable

    def test_set_iteration_is_flagged(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            for v in {1, 2}:
                pass
            return {"x": 1}

        effects = analyze_action(spec.actions["A"])
        assert any(v.kind == "unordered-iteration"
                   for v in effects.violations)

    def test_state_mutation_is_flagged(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            state.y.append(1)
            return {"x": 1}

        effects = analyze_action(spec.actions["A"])
        assert any(v.kind == "state-mutation" for v in effects.violations)

    def test_violation_lines_are_absolute(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            state.y.append(1)
            return {"x": 1}

        effects = analyze_action(spec.actions["A"])
        [violation] = effects.violations
        # the anchor must be a real line of this test file
        assert violation.line is not None and violation.line > 100


class TestIndependence:
    def test_disjoint_footprints_are_independent(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            return {"x": state.x + 1}

        @spec.action()
        def B(state, const):
            return {"y": state.y + 1}

        effects = analyze_spec(spec)
        assert effects.independent("A", "B")
        assert effects.independence().certified("A", "B")
        assert effects.independence().certified("B", "A")   # symmetric

    def test_write_read_conflict_blocks_independence(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            return {"x": state.x + 1}

        @spec.action()
        def B(state, const):
            return {"y": state.x}    # reads what A writes

        effects = analyze_spec(spec)
        assert not effects.independent("A", "B")
        assert effects.conflicts("A", "B") == {"x"}

    def test_uncertifiable_action_is_never_independent(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            extra = {}
            return {"x": 1, **extra}   # unknown writes

        @spec.action()
        def B(state, const):
            return {"y": 1}

        assert not analyze_spec(spec).independent("A", "B")

    def test_same_action_never_independent(self):
        spec = make_spec()

        @spec.action()
        def A(state, const):
            return {"x": 1}

        assert not analyze_spec(spec).independent("A", "A")


class TestBundledSpecs:
    """The analyzer must fully certify the bundled specs — no unknown
    effects and no purity violations anywhere (that exactness is what
    makes their published independence certificates meaningful)."""

    @pytest.mark.parametrize("build", [
        build_example_spec, build_raft_spec, build_zab_spec,
    ])
    def test_fully_certified(self, build):
        effects = analyze_spec(build())
        for name, action in effects.actions.items():
            assert action.certifiable, (name, action.violations,
                                        action.unknown_reads,
                                        action.unknown_writes)
        assert not effects.invariants_unknown

    def test_raft_helper_and_updates_dict_extraction(self):
        effects = analyze_spec(build_raft_spec())
        # fold_update_term aliases state as `st`; its reads must appear
        hrvr = effects.actions["HandleRequestVoteResponse"]
        assert {"votesResponded", "votesGranted"} <= hrvr.writes
        haer = effects.actions["HandleAppendEntriesRequest"]
        # the nested reject() closure's return dict must be resolved
        assert {"messages"} <= haer.writes

    def test_zab_quorum_helper_reads(self):
        effects = analyze_spec(build_zab_spec())
        # voteTable is read only inside _quorum_for_vote(state, ...) —
        # without transitive helper analysis it would look write-only
        assert "voteTable" in effects.actions["BecomeLeading"].reads

    def test_known_independent_pairs(self):
        raft = analyze_spec(build_raft_spec())
        assert raft.independent("Timeout", "DropMessage")
        assert not raft.independent("Timeout", "RequestVote")
        zab = analyze_spec(build_zab_spec())
        assert zab.independent("HandleVote", "HandleLeaderInfo")
        assert not zab.independent("Crash", "HandleVote")
