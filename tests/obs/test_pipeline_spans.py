"""End-to-end span sequences through the instrumented pipeline."""

import pytest

from repro.core import ControlledTester, DivergenceKind
from repro.core.testgen import generate_test_cases
from repro.obs import METRICS, TRACER, TraceReader
from repro.specs import build_example_spec
from repro.systems.catalog import kit
from repro.systems.raftkv import build_raftkv_mapping, make_raftkv_cluster
from repro.systems.raftkv.scenarios import raftkv_bug1
from repro.tlaplus import check


class TestCheckerSpans:
    def test_checker_emits_run_span_and_levels(self):
        TRACER.configure(enabled=True)
        result = check(build_example_spec())
        (run_span,) = TRACER.events("checker.run")
        assert run_span.kind == "span"
        assert run_span.fields["states"] == result.states_explored == 13
        assert run_span.fields["complete"] is True
        levels = TRACER.events("checker.bfs_level")
        assert [e.fields["level"] for e in levels] == [1, 2, 3, 4, 5]
        snap = METRICS.snapshot()
        assert snap["checker.states"] == 13
        assert snap["checker.edges"] == 18
        assert snap["checker.states_per_sec"] > 0


class TestTestgenSpans:
    def test_generate_emits_cases_and_coverage(self):
        graph = check(build_example_spec()).graph
        TRACER.configure(enabled=True)
        suite = generate_test_cases(graph, por=True, seed=0)
        emitted = TRACER.events("testgen.case_emitted")
        assert len(emitted) == len(suite)
        assert [e.fields["case"] for e in emitted] == list(range(len(suite)))
        (gen,) = TRACER.events("testgen.generate")
        assert gen.fields["cases"] == len(suite)
        assert METRICS.snapshot()["testgen.edge_coverage_pct"] == 100.0
        # the nested traversal + por spans are present exactly once
        assert len(TRACER.events("testgen.traversal")) == 1
        assert len(TRACER.events("por.reduce")) == 1


class TestDivergentRaftkvCase:
    """The known-divergent raftkv-bug1 case must leave the expected
    span sequence behind (the satellite's acceptance scenario)."""

    @pytest.fixture(scope="class")
    def outcome(self):
        scenario = raftkv_bug1()
        tester = ControlledTester(
            build_raftkv_mapping(scenario.spec, scenario.buggy_config),
            scenario.graph,
            lambda: make_raftkv_cluster(scenario.servers,
                                        scenario.buggy_config),
        )
        TRACER.reset()
        METRICS.reset()
        TRACER.configure(enabled=True)
        result = tester.run_case(scenario.case)
        TRACER.disable()
        events = TRACER.events()
        snapshot = METRICS.snapshot()
        TRACER.reset()
        METRICS.reset()
        return scenario, result, events, snapshot

    def test_case_diverges(self, outcome):
        scenario, result, _, _ = outcome
        assert not result.passed
        assert result.divergence.kind.value == scenario.expected_kind

    def test_case_span_carries_outcome(self, outcome):
        scenario, result, events, _ = outcome
        (case_span,) = [e for e in events if e.name == "runner.case"]
        assert case_span.fields["case"] == scenario.case.case_id
        assert case_span.fields["outcome"] == result.divergence.kind.value
        assert case_span.fields["executed"] == result.executed_actions

    def test_step_span_sequence(self, outcome):
        scenario, result, events, _ = outcome
        steps = [e for e in events if e.name == "runner.step"]
        # every executed step plus the step that diverged
        assert len(steps) == result.executed_actions + 1
        assert [e.fields["step"] for e in steps] == list(range(len(steps)))
        assert all(e.fields["outcome"] == "ok" for e in steps[:-1])
        assert steps[-1].fields["outcome"] == result.divergence.kind.value
        expected_actions = [s.label.name
                            for s in scenario.case.steps[: len(steps)]]
        assert [e.fields["action"] for e in steps] == expected_actions

    def test_divergence_event_and_metric(self, outcome):
        _, result, events, snapshot = outcome
        (div,) = [e for e in events if e.name == "runner.divergence"]
        assert div.fields["kind"] == result.divergence.kind.value
        kind = result.divergence.kind.value
        assert snapshot[f"divergence.{kind}"] == 1

    def test_supporting_events_present(self, outcome):
        _, result, events, snapshot = outcome
        names = {e.name for e in events}
        assert "scheduler.notification" in names
        assert "statecheck.compare" in names
        assert snapshot["statecheck.compares"] >= result.executed_actions

    def test_reader_reconstructs_the_timeline(self, outcome):
        scenario, result, events, _ = outcome
        timelines = TraceReader(events).case_timelines()
        line = timelines[scenario.case.case_id]
        assert line.step_count == result.executed_actions + 1
        assert line.outcome == result.divergence.kind.value
        assert [s.index for s in line.steps] == list(range(line.step_count))


class TestFaultSpans:
    def test_restart_fault_emits_injection_event(self):
        # the default raftkv model's verified space includes Restart
        # actions; run a case containing one and expect fault.injected
        spec, mapping, cluster_factory = kit("raftkv")
        graph = check(spec, max_states=100_000, truncate=True).graph
        suite = generate_test_cases(graph, por=True, seed=0)
        with_fault = [case for case in suite
                      if any(s.label.name == "Restart" for s in case.steps)]
        assert with_fault, "the raftkv model should generate Restart cases"
        tester = ControlledTester(mapping, graph, cluster_factory)
        TRACER.configure(enabled=True)
        result = tester.run_case(with_fault[0])
        assert result.passed, result.divergence
        faults = TRACER.events("fault.injected")
        assert faults and faults[0].fields["action"] == "Restart"


class TestQuiescenceSpans:
    """One ``runner.quiesce`` span per completed case; an idle verdict
    leaves an event and bumps ``testbed.idle_verdicts``."""

    def _toycache(self, **bugs):
        from repro.systems.toycache import (
            ToyCacheConfig, build_toycache_mapping, make_toycache_cluster)

        graph = check(build_example_spec()).graph
        suite = generate_test_cases(graph, por=False)
        tester = ControlledTester(
            build_toycache_mapping(), graph,
            lambda: make_toycache_cluster(ToyCacheConfig(**bugs)))
        return tester, suite

    def test_clean_cases_end_on_the_condition_not_the_bound(self):
        tester, suite = self._toycache()
        TRACER.configure(enabled=True)
        assert tester.run_suite(suite).passed
        spans = TRACER.events("runner.quiesce")
        assert [e.fields["case"] for e in spans] == [c.case_id for c in suite]
        assert all(e.kind == "span" and "timed_out" not in e.fields
                   and 0 <= e.fields["waited_s"] < 0.05 for e in spans)
        assert "testbed.idle_verdicts" not in METRICS.snapshot()
        digest = TraceReader(TRACER.events()).summarize(max_cases=0)
        assert (f"quiescence: {len(suite)} end-of-case waits, " in digest
                and "s waited; 0 idle verdicts" in digest)

    def test_thread_outside_a_park_point_delays_the_wait(self):
        import time

        from repro.systems.toycache import CacheServer

        tester, suite = self._toycache()
        respond = CacheServer.respond

        def respond_then_linger(self):
            respond(self)
            self.spawn(lambda: time.sleep(0.3))

        CacheServer.respond = respond_then_linger
        try:
            TRACER.configure(enabled=True)
            assert tester.run_case(suite[0]).passed
        finally:
            CacheServer.respond = respond
        # the end-of-case wait lasts until the sleeper, which started
        # during the last step, exits
        (span,) = TRACER.events("runner.quiesce")
        assert span.fields["waited_s"] >= 0.15

    def test_old_traces_with_timed_out_still_read(self):
        tester, suite = self._toycache()
        TRACER.configure(enabled=True)
        assert tester.run_case(suite[0]).passed
        events = TRACER.events()
        for event in events:
            if event.name == "runner.quiesce":
                event.fields["timed_out"] = True
        reader = TraceReader(events)
        assert "1 end-of-case waits" in reader.summarize(max_cases=0)
        assert reader.summary_dict()["quiescence"]["waits"] == 1

    def test_idle_verdicts_are_counted_and_summarized(self):
        tester, suite = self._toycache(bug_forget_respond=True)
        TRACER.configure(enabled=True)
        outcome = tester.run_suite(suite)
        assert all(r.divergence.kind is DivergenceKind.MISSING_ACTION
                   for r in outcome.results)
        assert METRICS.snapshot()["testbed.idle_verdicts"] == len(suite)
        assert len(TRACER.events("testbed.idle_verdict")) == len(suite)
        reader = TraceReader(TRACER.events())
        assert f"{len(suite)} idle verdicts" in reader.summarize(max_cases=0)
        assert reader.summary_dict()["quiescence"] == {
            "waits": 0, "waited_s": 0.0, "idle_verdicts": len(suite)}
