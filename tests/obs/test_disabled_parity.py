"""With tracing disabled (the default), the instrumented pipeline must
behave byte-identically to the seed: same checker counts, same suite
outcomes, and zero records emitted."""

from repro.systems.catalog import RUNNER, kit
from repro.core import ControlledTester, generate_test_cases
from repro.obs import METRICS, TRACER
from repro.specs import build_example_spec
from repro.tlaplus import check, to_dot


class TestCheckerParity:
    def test_seed_counts_and_no_records(self):
        assert not TRACER.enabled
        result = check(build_example_spec(data=(1, 2)))
        # the seed's Figure-2 numbers, exactly
        assert result.states_explored == 13
        assert result.edges_explored == 18
        assert result.diameter == 5
        assert result.complete and result.ok
        assert TRACER.emitted == 0
        assert METRICS.snapshot() == {}

    def test_two_disabled_runs_are_byte_identical(self):
        first = check(build_example_spec(data=(1, 2)))
        second = check(build_example_spec(data=(1, 2)))
        assert to_dot(first.graph) == to_dot(second.graph)

    def test_disabled_matches_enabled_run_output(self):
        disabled = check(build_example_spec(data=(1, 2)))
        TRACER.configure(enabled=True)
        enabled = check(build_example_spec(data=(1, 2)))
        TRACER.disable()
        # instrumentation observes; it must never change the artifact
        assert to_dot(disabled.graph) == to_dot(enabled.graph)
        assert disabled.diameter == enabled.diameter
        assert disabled.complete == enabled.complete


class TestSuiteParity:
    def test_toycache_suite_outcomes_unchanged(self):
        assert not TRACER.enabled
        spec, mapping, cluster_factory = kit("toycache")
        graph = check(spec, max_states=100_000, truncate=True).graph
        suite = generate_test_cases(graph, por=True, seed=0)
        tester = ControlledTester(mapping, graph, cluster_factory, RUNNER)
        outcome = tester.run_suite(suite)
        # the seed's toycache result: 4 cases, all passing
        assert len(outcome.results) == 4
        assert outcome.passed
        assert [r.executed_actions for r in outcome.results] == \
            [len(r.case) for r in outcome.results]
        assert TRACER.emitted == 0
        assert METRICS.snapshot() == {}
