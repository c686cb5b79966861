"""Self-test of the pipeline benchmark, on ``--smoke`` sizes.

Not in tier-1 (which collects ``tests/`` only); run it explicitly::

    python -m pytest benchmarks/pipeline/test_smoke.py -q
"""

import ast
import functools
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace):
    """One smoke run: (stdout lines, result, detail)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=False)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout[-2000:]
    return lines, json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def test_contract_shape_and_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/pipeline"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = ([w["name"] for w in CONTRACT["workloads"]]
             + [m["name"] for m in CONTRACT["end_to_end"]]
             + [m["name"] for m in CONTRACT["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result, detail = run(workload, 0, trace)
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    printed = {line.split()[1]: line.split()[4] for line in lines
               if line.startswith("metric ")}
    for metric in listed:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the shared header rides on every record
    assert {"commit", "nproc", "python", "platform", "seed", "models",
            "why", "load"} <= set(detail)


def test_percentiles_carry_their_sample_count():
    lines, result, detail = run("pipeline-clean", 0, 1)
    for name in ("testbed.case_ms_p50", "testbed.case_ms_p90",
                 "testbed.step_ms_p50", "testbed.step_ms_p95"):
        count = detail["sample_counts"][name]
        assert any(line.startswith(f"metric {name} ")
                   and f"(n={count} samples)" in line for line in lines)
    # smoke has too few cases for ten samples beyond p90: not reported
    assert detail["sample_counts"]["testbed.case_ms_p90"] < 100
    assert result["metrics"]["testbed.case_ms_p90"]["value"] == 0


def test_seed_drives_the_fault_plan_and_the_soak_report():
    digests = {}
    for seed in (0, 1):
        digests[seed] = (
            run("faults-bugs", seed, 1)[2]["exact"]["faults.plan_sha256"],
            run("soak-conform", seed, 0)[2]["exact"]["soak.report_sha256"])
    assert digests[0][0] != digests[1][0]
    assert digests[0][1] != digests[1][1]
    run.cache_clear()       # same seed, fresh processes: same inputs
    assert digests[0] == (
        run("faults-bugs", 0, 1)[2]["exact"]["faults.plan_sha256"],
        run("soak-conform", 0, 0)[2]["exact"]["soak.report_sha256"])


def test_harness_imports_only_public_names():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        for source in ("run.py", "harness.py", "workloads.py"):
            tree = ast.parse((HERE / source).read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [(alias.name, ()) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [(node.module or "",
                                [alias.name for alias in node.names])]
                elif (isinstance(node, ast.Attribute)
                      and node.attr.startswith("_")
                      and not node.attr.startswith("__")):
                    owner = getattr(node.value, "id", None)
                    assert owner == "self", (source, node.lineno, node.attr)
                    continue
                else:
                    continue
                for module, names in modules:
                    if module.split(".")[0] != "repro":
                        continue
                    assert module != "repro.cli", (source, node.lineno)
                    assert not any(part.startswith("_")
                                   for part in module.split(".")), module
                    public = getattr(importlib.import_module(module),
                                     "__all__", None)
                    for name in names:
                        assert not name.startswith("_"), (module, name)
                        if public is not None:
                            assert name in public, (module, name)
    finally:
        sys.path.pop(0)
