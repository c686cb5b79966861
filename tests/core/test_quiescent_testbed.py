"""The testbed waits on cluster quiescence, with its timeouts as ceilings.

Verdict-level checks of the quiescence monitor
(``tests/runtime/test_quiescence.py`` has the unit tests): timeouts are
cut short only when nothing can happen any more, a thread blocking
outside a park point degrades the testbed to its upper bounds and never
to a wrong verdict, no thread outlives a suite, verdicts hold beside
busy-looping sibling threads, and the sleeping/polling paths stay gone.
"""

import io
import re
import sys
import threading
import time
import tokenize
from pathlib import Path

import pytest

from repro.core import (
    ControlledTester,
    DivergenceKind,
    RunnerConfig,
    generate_test_cases,
)
from repro.core.mapping import SpecMapping, mocket_action, traced_field
from repro.core.testgen import label, scenario_case
from repro.faults import (
    ChaosKind,
    FaultConfig,
    FaultInjection,
    FaultPlan,
    FaultRunner,
    InjectionMode,
)
from repro.runtime import Cluster, Node
from repro.specs import build_example_spec
from repro.systems.catalog import RUNNER, TARGETS, get_model, kit
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

#: ceilings far above anything a quiescent verdict needs
_PATIENT = RunnerConfig(match_timeout=10.0, done_timeout=10.0,
                        quiesce_delay=10.0)


@pytest.fixture(scope="module")
def example_kit():
    graph = check(build_example_spec()).graph
    return graph, generate_test_cases(graph, por=False)


@pytest.fixture(scope="module")
def raftkv_kit():
    spec, mapping, factory = kit("raftkv")
    graph = check(spec).graph
    return mapping, factory, graph, generate_test_cases(graph, por=True, seed=0)


def _put_system(client, config, in_action=lambda node: None):
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
                              lambda: Cluster(["s"], PutNode), config)
    return tester, case


def _raftkv_table2_results():
    """Run each raftkv Table-2 scenario against its buggy build."""
    for build in TARGETS["raftkv"].scenarios:
        scenario = build()
        _spec, mapping, factory = kit(
            "raftkv", spec=scenario.spec, config=scenario.buggy_config,
            servers=scenario.servers)
        yield scenario, ControlledTester(
            mapping, scenario.graph, factory, RUNNER).run_case(scenario.case)


class TestTimeoutsAreCeilings:
    def test_missing_action_is_decided_when_the_cluster_goes_idle(self, example_kit):
        graph, suite = example_kit
        tester = ControlledTester(
            build_toycache_mapping(), graph,
            lambda: make_toycache_cluster(ToyCacheConfig(bug_forget_respond=True)),
            _PATIENT)
        started = time.monotonic()
        result = tester.run_case(suite[0])
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert time.monotonic() - started < 2.0     # not 10 s

    def test_action_that_never_finishes_is_decided_when_idle(self):
        gate = threading.Event()
        tester, case = _put_system(
            lambda node, v: node.put(v), _PATIENT,
            in_action=lambda node: node.wait_or_crash(gate))   # parks
        started = time.monotonic()
        result = tester.run_case(case)
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert "never finished" in result.divergence.detail
        assert time.monotonic() - started < 2.0

    def test_clean_case_does_not_wait_out_the_quiesce_bound(self, example_kit):
        graph, suite = example_kit
        tester = ControlledTester(build_toycache_mapping(), graph,
                                  make_toycache_cluster, _PATIENT)
        started = time.monotonic()
        assert tester.run_suite(suite).passed
        assert time.monotonic() - started < 2.0


class TestUndeclaredBlockingDegradesToTheBounds:
    def test_sleeping_client_is_waited_for_not_declared_missing(self):
        def slow_client(node, v):
            time.sleep(0.3)             # not a park point: stays counted
            node.put(v)

        tester, case = _put_system(
            slow_client, RunnerConfig(match_timeout=5.0, done_timeout=5.0,
                                      quiesce_delay=0.05))
        assert tester.run_case(case).passed

    def test_missing_action_behind_a_sleeper_ends_on_the_ceiling(self):
        def sleeper_only(node, v):
            time.sleep(0.6)

        tester, case = _put_system(
            sleeper_only, RunnerConfig(match_timeout=0.2, done_timeout=0.2,
                                       quiesce_delay=0.05))
        started = time.monotonic()
        result = tester.run_case(case)
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION
        assert time.monotonic() - started >= 0.2

    def test_convergence_behind_a_sleeper_ends_on_the_ceiling(self):
        def put_then_sleep(node, v):
            node.put(v)
            time.sleep(1.0)             # not a park point: stays counted

        tester, case = _put_system(put_then_sleep, RUNNER)
        # bounce the node after the last step: its fresh incarnation
        # never re-converges, and the sleeper keeps the cluster busy
        plan = FaultPlan("ceiling", [FaultInjection(
            InjectionMode.CHAOS, ChaosKind.BOUNCE.value,
            case_id=case.case_id, step_index=len(case.steps),
            params={"node": "s"})], chaos=True)
        runner = FaultRunner(tester.mapping, tester.graph,
                             tester.cluster_factory, plan, RUNNER,
                             FaultConfig(convergence_timeout=0.2))
        result = runner.run_case(case)
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "within 0.2s" in result.divergence.detail
        # the ceiling, not the sleeper, ended the wait; teardown's
        # request join outlasts the rest of the sleep
        assert 0.2 <= result.phase_seconds["check"] < 1.0


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
        outcome = ControlledTester(mapping, graph, factory,
                                   RUNNER).run_suite(suite)
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
        ControlledTester(mapping, graph, factory, RUNNER).run_suite(
            suite.truncated(20))
        assert threading.active_count() == baseline

    def test_divergent_cases_leave_no_thread_behind(self, example_kit):
        graph, suite = example_kit
        baseline = threading.active_count()
        for flag in ("bug_forget_respond", "bug_double_respond",
                     "bug_wrong_max"):
            outcome = ControlledTester(
                build_toycache_mapping(), graph,
                lambda: make_toycache_cluster(ToyCacheConfig(**{flag: True})),
                RUNNER).run_suite(suite)
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
    preempted somewhere; the runner keeps its CLI bounds."""

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
        outcome = ControlledTester(mapping, graph, factory, RUNNER).run_suite(
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
    waits left are condition/event waits bounded by a documented
    ceiling."""

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
