"""End-to-end Mocket pipeline on the Figure 1 toy system.

Model-check the spec, generate test cases, run controlled testing:
the correct implementation passes every case; each seeded bug is
detected with its characteristic divergence kind.
"""

import pytest

from repro.core import (
    ControlledTester,
    DivergenceKind,
    generate_test_cases,
)
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check


@pytest.fixture(scope="module")
def graph():
    return check(build_example_spec(data=(1, 2))).graph


@pytest.fixture(scope="module")
def suite(graph):
    return generate_test_cases(graph, por=False)


def _tester(graph, config: ToyCacheConfig) -> ControlledTester:
    return ControlledTester(
        build_toycache_mapping(),
        graph,
        lambda: make_toycache_cluster(config),
    )


class TestCorrectImplementation:
    def test_every_case_passes(self, graph, suite):
        tester = _tester(graph, ToyCacheConfig())
        result = tester.run_suite(suite)
        assert result.passed, [r.divergence for r in result.failures]
        assert len(result.results) == len(suite)

    def test_with_por_also_passes(self, graph):
        suite = generate_test_cases(graph, por=True)
        tester = _tester(graph, ToyCacheConfig())
        assert tester.run_suite(suite).passed


class TestSeededBugs:
    def test_wrong_max_is_inconsistent_state(self, graph, suite):
        tester = _tester(graph, ToyCacheConfig(bug_wrong_max=True))
        result = tester.run_suite(suite, stop_on_divergence=True)
        divergence = result.first_divergence()
        assert divergence is not None
        assert divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "msg" in divergence.variable_names

    def test_forget_respond_is_missing_action(self, graph, suite):
        tester = _tester(graph, ToyCacheConfig(bug_forget_respond=True))
        result = tester.run_suite(suite, stop_on_divergence=True)
        divergence = result.first_divergence()
        assert divergence is not None
        assert divergence.kind is DivergenceKind.MISSING_ACTION
        assert divergence.action == "Respond"

    def test_double_respond_is_unexpected_action(self, graph, suite):
        tester = _tester(graph, ToyCacheConfig(bug_double_respond=True))
        result = tester.run_suite(suite, stop_on_divergence=True)
        divergence = result.first_divergence()
        assert divergence is not None
        assert divergence.kind is DivergenceKind.UNEXPECTED_ACTION
        assert divergence.action == "Respond"

    def test_bug_report_payload(self, graph, suite):
        tester = _tester(graph, ToyCacheConfig(bug_wrong_max=True))
        result = tester.run_suite(suite, stop_on_divergence=True)
        failing = result.failures[0]
        report = failing.bug_report()
        assert report["kind"] == "inconsistent_state"
        assert "schedule" in report and report["actions_in_case"] >= 1


class TestStandaloneMode:
    def test_system_runs_without_mocket(self):
        """Instrumentation must be a no-op outside controlled testing."""
        from repro.specs.example import MAX, NOT_MAX

        with make_toycache_cluster(ToyCacheConfig()) as cluster:
            server = cluster.node("server")
            server.request(2)
            _wait_until(lambda: server.msg == MAX)
            server.request(1)
            _wait_until(lambda: server.msg == NOT_MAX)
            assert server.cache == frozenset({1, 2})


def _wait_until(predicate, timeout=2.0, poll=0.005):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached in time")
