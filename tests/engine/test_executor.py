"""Parallel suite execution: same results as serial, any worker count."""

import pytest

from repro.core import ControlledTester, generate_test_cases
from repro.engine import run_suite_parallel
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check


def _kit(**bug_flags):
    spec = build_example_spec()
    graph = check(spec).graph
    config = ToyCacheConfig(**bug_flags)
    tester = ControlledTester(build_toycache_mapping(), graph,
                              lambda: make_toycache_cluster(config))
    suite = generate_test_cases(graph, por=False)
    return tester, suite


def _shape(outcome):
    return [(r.case.case_id, r.passed) for r in outcome.results]


class TestParallelSuite:
    def test_matches_serial_on_clean_target(self):
        tester, suite = _kit()
        serial = tester.run_suite(suite)
        parallel = run_suite_parallel(tester, suite, workers=3)
        assert _shape(parallel) == _shape(serial)
        assert parallel.passed

    def test_results_merged_in_case_order(self):
        tester, suite = _kit()
        outcome = run_suite_parallel(tester, suite, workers=2)
        ids = [r.case.case_id for r in outcome.results]
        assert ids == sorted(ids)
        assert len(ids) == len(suite)

    def test_divergences_match_serial(self):
        tester, suite = _kit(bug_wrong_max=True)
        serial = tester.run_suite(suite)
        parallel = run_suite_parallel(tester, suite, workers=3)
        assert _shape(parallel) == _shape(serial)
        assert [r.divergence.kind for r in parallel.failures] == \
            [r.divergence.kind for r in serial.failures]

    def test_stop_on_divergence_truncates_like_serial(self):
        tester, suite = _kit(bug_wrong_max=True)
        serial = tester.run_suite(suite, stop_on_divergence=True)
        parallel = run_suite_parallel(tester, suite, workers=3,
                                      stop_on_divergence=True)
        assert _shape(parallel) == _shape(serial)
        assert not parallel.results[-1].passed

    def test_max_cases(self):
        tester, suite = _kit()
        outcome = run_suite_parallel(tester, suite, workers=2, max_cases=2)
        assert len(outcome.results) == 2

    def test_single_worker_uses_serial_path(self):
        tester, suite = _kit()
        outcome = run_suite_parallel(tester, suite, workers=1)
        assert len(outcome.results) == len(suite)
        assert outcome.passed

    def test_workers_must_be_positive(self):
        tester, suite = _kit()
        with pytest.raises(ValueError, match="workers"):
            run_suite_parallel(tester, suite, workers=0)

    def test_run_suite_takes_workers(self):
        # the runner-level entry point dispatches to the executor
        tester, suite = _kit()
        outcome = tester.run_suite(suite, workers=2)
        assert outcome.passed
        assert len(outcome.results) == len(suite)
