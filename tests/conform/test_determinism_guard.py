"""Determinism guard: `mocket conform` output must be byte-identical
for any ``PYTHONHASHSEED``.

The verdict and first-divergence line are consumed by CI gates and
bug-report digests, so they are pinned the same way fault plans and
canonical graphs are: subprocess runs under different hash seeds must
produce identical stdout (text *and* JSON forms).
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def run_conform(log, hashseed, fmt="json"):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "conform", str(log),
         "--spec", "raftkv", "--format", fmt],
        capture_output=True, text=True, env=env, timeout=240)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def raftkv_logs(tmp_path_factory):
    """One conforming and one seeded-divergent raftkv log."""
    from repro.systems.catalog import kit

    from .conftest import canonical_graph, write_walk_log

    spec, _mapping, _factory = kit("raftkv")
    graph = canonical_graph(spec)
    base = tmp_path_factory.mktemp("conform-determinism")
    good = base / "good.jsonl"
    records = write_walk_log(good, graph, sessions=3, steps=8)
    bad = base / "bad.jsonl"
    victim = len(records) // 2
    records[victim]["fields"]["action"] = "ClientRequestInjected"
    bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in records))
    return good, bad, victim + 1


@pytest.mark.slow
class TestConformDeterminism:
    def test_verdict_bytes_identical_across_seeds(self, raftkv_logs):
        good, _bad, _line = raftkv_logs
        outputs = {}
        for hashseed in (0, 42):
            code, out = run_conform(good, hashseed)
            assert code == 0, out
            outputs[hashseed] = out
        assert len(set(outputs.values())) == 1, (
            "conform JSON differs across PYTHONHASHSEED")

    def test_divergence_line_identical_across_seeds(self, raftkv_logs):
        _good, bad, line = raftkv_logs
        outputs = {}
        for hashseed in (0, 42):
            code, out = run_conform(bad, hashseed)
            assert code == 1, out
            payload = json.loads(out)
            assert payload["first_divergence"]["line"] == line
            outputs[hashseed] = out
        assert len(set(outputs.values())) == 1, (
            "divergence report differs across PYTHONHASHSEED")

    def test_text_report_identical_too(self, raftkv_logs):
        _good, bad, _line = raftkv_logs
        first = run_conform(bad, 0, fmt="text")
        second = run_conform(bad, 42, fmt="text")
        assert first == second
