"""The testbed's verdicts come from cluster quiescence alone.

Verdict-level checks of the quiescence monitor
(``tests/runtime/test_quiescence.py`` has the unit tests): a wait ends
when its event happens or when nothing can happen any more, a thread
blocking outside a park point delays the verdict until it exits and
never changes it, a thread that never parks trips the hang guard — a
harness failure, not a divergence — no thread outlives a suite,
verdicts hold beside busy-looping sibling threads, and the
sleeping/polling paths stay gone.
"""

import io
import re
import sys
import threading
import time
import tokenize
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ControlledTester, DivergenceKind, generate_test_cases
from repro.core.mapping import SpecMapping, mocket_action, traced_field
from repro.core.testgen import label, scenario_case
from repro.faults import (
    ChaosKind,
    FaultInjection,
    FaultPlan,
    FaultRunner,
    InjectionMode,
)
from repro.runtime import Cluster, Node, network
from repro.runtime.network import HangGuardTripped
from repro.specs import build_example_spec
from repro.systems.catalog import TARGETS, get_model, kit
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import Specification, check

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: the files the grep guard reads: the testbed, the fault layer, the
#: threaded runtime and the four systems (whose inbox loops are
#: ``Node.serve_inbox``)
GUARDED = sorted(
    list((SRC / "core" / "testbed").glob("*.py"))
    + list((SRC / "faults").glob("*.py"))
    + [SRC / "runtime" / name
       for name in ("node.py", "cluster.py", "network.py")]
    + [SRC / "systems" / system / "node.py"
       for system in ("pyxraft", "raftkv", "minizk")]
    + [SRC / "systems" / "toycache" / "server.py"])

@pytest.fixture(scope="module")
def example_kit():
    graph = check(build_example_spec()).graph
    return graph, generate_test_cases(graph, por=False)


@pytest.fixture(scope="module")
def raftkv_kit():
    spec, mapping, factory = kit("raftkv")
    graph = check(spec).graph
    return mapping, factory, graph, generate_test_cases(graph, por=True, seed=0)


def _put_system(client, in_action=lambda node: None):
    """One node, one action ``Put(v)``; ``client(node, v)`` is the
    client script's body, ``in_action(node)`` runs inside the action."""
    spec = Specification("put", constants={})
    spec.add_variable("x")

    @spec.init
    def init(const):
        return {"x": 0}

    @spec.action(params={"v": lambda s, c: [1]})
    def Put(state, const, v):
        return {"x": v} if state.x == 0 else None

    class PutNode(Node):
        x = traced_field("x")

        def __init__(self, nid, cluster):
            super().__init__(nid, cluster)
            self.x = 0

        @mocket_action("Put", params=lambda self, v: {"v": v})
        def put(self, v):
            self.x = v
            in_action(self)

    mapping = SpecMapping(spec)
    mapping.map_variable("x")
    mapping.map_user_request(
        "Put", lambda cluster, params, occ: client(cluster.node("s"),
                                                   params["v"]))
    graph, case = scenario_case(spec, [label("Put", v=1)])
    tester = ControlledTester(mapping, graph,
                              lambda: Cluster(["s"], PutNode))
    return tester, case


def _raftkv_table2_results():
    """Run each raftkv Table-2 scenario against its buggy build."""
    for build in TARGETS["raftkv"].scenarios:
        scenario = build()
        _spec, mapping, factory = kit(
            "raftkv", spec=scenario.spec, config=scenario.buggy_config,
            servers=scenario.servers)
        yield scenario, ControlledTester(
            mapping, scenario.graph, factory).run_case(scenario.case)


class TestTimeoutsAreCeilings:
    """Section 4.3.3's scheduler time-outs are decided the moment the
    cluster goes idle; no ceiling is waited out."""

    def test_missing_action_is_decided_when_the_cluster_goes_idle(self, example_kit):
        graph, suite = example_kit
        tester = ControlledTester(
            build_toycache_mapping(), graph,
            lambda: make_toycache_cluster(ToyCacheConfig(bug_forget_respond=True)))
        started = time.monotonic()
        result = tester.run_case(suite[0])
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert time.monotonic() - started < 2.0

    def test_action_that_never_finishes_is_decided_when_idle(self):
        gate = threading.Event()
        tester, case = _put_system(
            lambda node, v: node.put(v),
            in_action=lambda node: node.wait_or_crash(gate))   # parks
        started = time.monotonic()
        result = tester.run_case(case)
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert "never finished" in result.divergence.detail
        assert time.monotonic() - started < 2.0

    def test_clean_case_does_not_wait_out_the_quiesce_bound(self, example_kit):
        graph, suite = example_kit
        tester = ControlledTester(build_toycache_mapping(), graph,
                                  make_toycache_cluster)
        started = time.monotonic()
        assert tester.run_suite(suite).passed
        assert time.monotonic() - started < 2.0


class TestUndeclaredBlockingDegradesToTheBounds:
    """A thread sleeping outside a park point stays counted: the
    verdict waits until it exits, and keeps its kind."""

    def test_sleeping_client_is_waited_for_not_declared_missing(self):
        def slow_client(node, v):
            time.sleep(0.3)             # not a park point: stays counted
            node.put(v)

        tester, case = _put_system(slow_client)
        assert tester.run_case(case).passed

    def test_missing_action_behind_a_sleeper_is_decided_when_it_exits(self):
        def sleeper_only(node, v):
            time.sleep(0.6)

        tester, case = _put_system(sleeper_only)
        started = time.monotonic()
        result = tester.run_case(case)
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert time.monotonic() - started >= 0.6

    def test_convergence_behind_a_sleeper_is_decided_when_it_exits(self):
        def put_then_sleep(node, v):
            node.put(v)
            time.sleep(0.6)             # not a park point: stays counted

        tester, case = _put_system(put_then_sleep)
        # bounce the node after the last step: its fresh incarnation
        # never re-converges, and the sleeper keeps the cluster busy
        plan = FaultPlan("sleeper", [FaultInjection(
            InjectionMode.CHAOS, ChaosKind.BOUNCE.value,
            case_id=case.case_id, step_index=len(case.steps),
            params={"node": "s"})], chaos=True)
        runner = FaultRunner(tester.mapping, tester.graph,
                             tester.cluster_factory, plan)
        result = runner.run_case(case)
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "once quiescent" in result.divergence.detail
        # the sleeper's exit, not a ceiling, ended the wait
        assert result.phase_seconds["check"] >= 0.4


class TestNoVerdictFromTheOldCeilings:
    """Cases whose verdict the testbed's former wall-clock ceilings
    decided wrongly: ``match_timeout`` (1.0 s in the CLI, 2.0 s by
    default) and ``quiesce_delay`` (0.05 s)."""

    def test_client_slower_than_the_match_timeout_passes(self):
        def slow_client(node, v):
            time.sleep(2.5)             # counted throughout
            node.put(v)

        tester, case = _put_system(slow_client)
        assert tester.run_case(case).passed

    def test_late_offer_after_the_last_step_is_unexpected(self):
        def put_then_offer_late(node, v):
            node.put(v)

            def late():
                time.sleep(0.2)         # not a park point: stays counted
                node.put(v)             # Put is not enabled once x == 1

            node.spawn(late)

        tester, case = _put_system(put_then_offer_late)
        result = tester.run_case(case)
        assert result.divergence.kind is DivergenceKind.UNEXPECTED_ACTION
        assert result.divergence.step_index == len(case.steps)
        assert "is not enabled in the final verified state" in (
            result.divergence.detail)


class TestHangGuard:
    """A thread that never parks trips the hang guard: the run stops
    with one error naming the case, the step and the wait, never with
    a divergence."""

    def test_a_thread_that_never_parks_trips_the_guard(self, monkeypatch):
        monkeypatch.setattr(network, "HANG_GUARD", 0.2)

        def sleeper_only(node, v):
            time.sleep(0.6)             # outlives the guard

        tester, case = _put_system(sleeper_only)
        with pytest.raises(HangGuardTripped) as trip:
            tester.run_case(case)
        message = str(trip.value)
        assert message.startswith(f"case {case.case_id}, step 0: ")
        assert "the wait for Put(v=1)" in message
        assert "within 0.2s" in message

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_the_cli_reports_a_trip_as_a_harness_failure(
            self, monkeypatch, capsys, workers):
        def trip(self, wait="the wait for quiescence"):
            raise HangGuardTripped(f"{wait} did not end")

        monkeypatch.setattr(network.Network, "wait_quiescent", trip)
        assert main(["test", "toycache", "--workers", workers]) == 2
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(r"mocket test: case \d+, step \d+: "
                            r"the end-of-case check did not end", err), err


class TestTruncatedGraph:
    def test_cases_cut_off_by_max_states_do_not_diverge(self):
        """A state whose successors were refused has an incomplete
        enabled set; ending a case there proves nothing unexpected."""
        spec, mapping, factory = kit("raftkv")
        result = check(spec, max_states=100, truncate=True)
        graph = result.graph
        assert not result.complete and graph.refused_ids
        suite = generate_test_cases(graph, por=True, seed=0)
        cut = [case for case in suite if case.final_id in graph.refused_ids]
        assert cut, "the model must truncate inside some case"
        outcome = ControlledTester(mapping, graph, factory).run_suite(suite)
        assert outcome.passed, [r.divergence.headline()
                                for r in outcome.failures][:3]

    def test_complete_graph_records_no_refusals(self):
        assert not check(build_example_spec()).graph.refused_ids

    def test_canonicalize_carries_the_refused_states(self):
        from repro.engine import canonicalize

        graph = check(get_model("raftkv")(), max_states=100,
                      truncate=True).graph
        canonical = canonicalize(graph)
        assert ({canonical.state_of(n) for n in canonical.refused_ids}
                == {graph.state_of(n) for n in graph.refused_ids})


class TestNoThreadOutlivesASuite:
    @pytest.mark.parametrize("bugs", [(), ("bug_drop_higher_term_response",)])
    def test_raftkv_suite_leaves_no_thread_behind(self, raftkv_kit, bugs):
        _mapping, _factory, graph, suite = raftkv_kit
        _spec, mapping, factory = kit("raftkv", bugs)
        baseline = threading.active_count()
        ControlledTester(mapping, graph, factory).run_suite(
            suite.truncated(20))
        assert threading.active_count() == baseline

    def test_divergent_cases_leave_no_thread_behind(self, example_kit):
        graph, suite = example_kit
        baseline = threading.active_count()
        for flag in ("bug_forget_respond", "bug_double_respond",
                     "bug_wrong_max"):
            outcome = ControlledTester(
                build_toycache_mapping(), graph,
                lambda: make_toycache_cluster(ToyCacheConfig(**{flag: True}))
            ).run_suite(suite)
            assert not outcome.passed
        assert threading.active_count() == baseline

    def test_table2_scenarios_leave_no_thread_behind(self):
        baseline = threading.active_count()
        for _scenario, result in _raftkv_table2_results():
            assert not result.passed
        assert threading.active_count() == baseline


class TestUnderCpuContention:
    """ROADMAP aim 3: verdicts hold on a loaded CPU.  Two sibling
    threads spin for the whole test and the interpreter switches threads
    50 times as often as usual, so every hand-off in the testbed is
    preempted somewhere."""

    @pytest.fixture
    def busy_siblings(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        threads = [threading.Thread(target=spin, daemon=True)
                   for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            yield
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join(5.0)
                assert not thread.is_alive()

    def test_clean_raftkv_cases_do_not_diverge(self, raftkv_kit, busy_siblings):
        mapping, factory, graph, suite = raftkv_kit
        outcome = ControlledTester(mapping, graph, factory).run_suite(
            suite.truncated(36))
        assert outcome.passed, [r.divergence.headline()
                                for r in outcome.failures][:3]

    def test_raftkv_table2_bugs_keep_their_kinds(self, busy_siblings):
        for scenario, result in _raftkv_table2_results():
            assert not result.passed, scenario.name
            assert (result.divergence.kind.value
                    == scenario.expected_kind), scenario.name


def _code_lines(path):
    """line number -> the line's code with strings, comments and
    whitespace removed (docstrings may *talk* about sleeping)."""
    lines = {}
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER):
            lines[token.start[0]] = lines.get(token.start[0], "") + token.string
    return lines


class TestTheSleepsStayGone:
    """Grep guard: the testbed, the fault layer, the threaded runtime
    and the systems' inbox loops pace nothing with wall time.  The only
    waits left are condition/event waits behind the hang guard."""

    #: wall-time pacing: a sleep, a poll with a literal sub-second
    #: period, a join used as a pause
    FORBIDDEN = re.compile(
        r"\.sleep\(|importqueue|queue\.Queue"
        r"|wait\(0\.\d|timeout=0\.\d|poll="
        r"|join\(timeout=")

    def test_no_sleep_poll_or_pacing_join(self):
        offenders = []
        for path in GUARDED:
            for number, code in sorted(_code_lines(path).items()):
                if self.FORBIDDEN.search(code):
                    offenders.append(f"{path.name}:{number}: {code}")
        assert not offenders, "\n".join(offenders)

    def test_the_guard_sees_the_files_it_names(self):
        assert all(path.is_file() for path in GUARDED)
        assert {"runner.py", "scheduler.py", "network.py", "node.py",
                "cluster.py", "server.py", "nemesis.py",
                "shrink.py"} <= {p.name for p in GUARDED}
