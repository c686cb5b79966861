"""Suite-level timing reports: SuiteResult.bug_report() and the
per-case phase timings benchmark scripts read instead of re-measuring."""

import json

import pytest

from repro.core import ControlledTester, generate_test_cases
from repro.systems.catalog import RUNNER, kit
from repro.tlaplus import check


@pytest.fixture(scope="module")
def buggy_outcome():
    spec, mapping, cluster_factory = kit("toycache", ["bug_wrong_max"])
    graph = check(spec, max_states=100_000, truncate=True).graph
    suite = generate_test_cases(graph, por=True, seed=0)
    tester = ControlledTester(mapping, graph, cluster_factory, RUNNER)
    return tester.run_suite(suite, stop_on_divergence=True)


class TestSuiteBugReport:
    def test_report_carries_suite_timing(self, buggy_outcome):
        report = buggy_outcome.bug_report()
        assert report["cases"] == len(buggy_outcome.results)
        assert report["divergent"] == len(buggy_outcome.failures) >= 1
        assert report["elapsed_seconds"] == buggy_outcome.elapsed_seconds > 0
        assert len(report["case_elapsed_seconds"]) == report["cases"]

    def test_report_carries_phase_timing(self, buggy_outcome):
        phases = buggy_outcome.bug_report()["phase_seconds"]
        assert set(phases) == {"deploy", "steps", "check", "teardown"}
        assert phases["deploy"] > 0
        assert phases["steps"] > 0
        # phase totals must be bounded by total wall clock
        assert sum(phases.values()) <= buggy_outcome.elapsed_seconds * 1.01

    def test_report_counts_divergences_by_kind(self, buggy_outcome):
        counts = buggy_outcome.bug_report()["divergence_counts"]
        assert set(counts) == {"inconsistent_state", "missing_action",
                               "unexpected_action", "stalled"}
        assert counts["inconsistent_state"] >= 1

    def test_case_reports_carry_elapsed_and_phases(self, buggy_outcome):
        failing = buggy_outcome.failures[0]
        report = failing.bug_report()
        assert report["elapsed_seconds"] == failing.elapsed_seconds > 0
        assert set(report["phase_seconds"]) == {"deploy", "steps", "check",
                                                "teardown"}

    def test_report_is_json_serializable(self, buggy_outcome):
        json.dumps(buggy_outcome.bug_report())

    def test_passing_suite_reports_empty_failures(self):
        spec, mapping, cluster_factory = kit("toycache")
        graph = check(spec, max_states=100_000, truncate=True).graph
        suite = generate_test_cases(graph, por=True, seed=0)
        tester = ControlledTester(mapping, graph, cluster_factory, RUNNER)
        outcome = tester.run_suite(suite, max_cases=1)
        report = outcome.bug_report()
        assert report["divergent"] == 0 and report["failures"] == []
        assert report["phase_seconds"]["deploy"] > 0
