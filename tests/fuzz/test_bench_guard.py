"""Smoke: ``benchmarks/fuzz_bench.py`` — a CI gate no other test
imports — runs end to end against the catalog's raftkv kit."""

import json
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
sys.path.insert(0, os.path.abspath(BENCH_DIR))

import fuzz_bench  # noqa: E402  (benchmarks/ is not a package)


def test_bench_script_runs_both_arms(tmp_path, capsys):
    out = tmp_path / "BENCH_fuzz.json"
    # one schedule per arm cannot separate guided from unguided, so the
    # guidance gate may fail (exit 1); the correctness gate must not
    code = fuzz_bench.main(["--out", str(out), "--budget", "1",
                            "--cases", "1"])
    assert code in (0, 1)
    assert "unattributed divergences" not in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert set(record["arms"]) == {"guided", "unguided"}
    assert all(arm["distinct_states"] for arm in record["arms"].values())
