"""Tests for suite save/load and its CLI plumbing."""

import io

import pytest

from repro.artifact import ArtifactError
from repro.cli import main
from repro.core import generate_test_cases
from repro.core.testgen import TestSuite
from repro.specs import build_example_spec
from repro.tlaplus import check


@pytest.fixture(scope="module")
def suite():
    graph = check(build_example_spec()).graph
    return generate_test_cases(graph, por=True)


class TestSuiteRoundtrip:
    def test_file_roundtrip(self, suite, tmp_path):
        path = tmp_path / "suite.json"
        suite.save(str(path))
        loaded = TestSuite.load(str(path))
        assert len(loaded) == len(suite)
        assert loaded.excluded_edges == suite.excluded_edges
        for original, restored in zip(suite, loaded):
            assert restored.labels() == original.labels()
            assert restored.initial_state == original.initial_state
            assert [s.expected_state for s in restored.steps] == \
                [s.expected_state for s in original.steps]

    def test_stream_roundtrip(self, suite):
        buffer = io.StringIO()
        suite.save(buffer)
        buffer.seek(0)
        assert len(TestSuite.load(buffer)) == len(suite)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ArtifactError,
                           match="is not a mocket-test-suite/1 file"):
            TestSuite.load(str(path))

    def test_loaded_suite_runs(self, suite, tmp_path):
        from repro.core import ControlledTester
        from repro.systems.toycache import (
            ToyCacheConfig, build_toycache_mapping, make_toycache_cluster,
        )

        path = tmp_path / "suite.json"
        suite.save(str(path))
        loaded = TestSuite.load(str(path))
        graph = check(build_example_spec()).graph
        tester = ControlledTester(
            build_toycache_mapping(), graph,
            lambda: make_toycache_cluster(ToyCacheConfig()),
        )
        assert tester.run_suite(loaded).passed


class TestCliSuiteFlags:
    def test_testgen_out_then_test_suite(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        assert main(["testgen", "example", "--out", str(path)]) == 0
        assert path.exists()
        assert main(["test", "toycache", "--suite", str(path)]) == 0
        assert "0 divergent" in capsys.readouterr().out
