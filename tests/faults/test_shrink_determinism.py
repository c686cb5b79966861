"""Determinism guard for the shrinker (mirrors ``tests/engine``'s):

* the same failing plan shrinks to the byte-identical minimal plan and
  shrink log under ``workers=1`` and ``workers=4``,
* the result is independent of ``PYTHONHASHSEED`` (verified in fresh
  subprocesses with seeds 0 and 42).

A regression here makes a minimal repro irreproducible — exactly the
property the shrinker exists to provide.
"""

import os
import subprocess
import sys

import pytest

from repro.core import RunnerConfig, generate_test_cases
from repro.engine import canonicalize, fork_available
from repro.faults import FaultConfig, plan_faults, shrink_plan
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check

_RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0,
                       quiesce_delay=0.05)
_FAULTS = FaultConfig(convergence_timeout=1.0)

_KIT_SCRIPT = """
from repro.core import RunnerConfig, generate_test_cases
from repro.engine import canonicalize
from repro.faults import FaultConfig, plan_faults, shrink_plan
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig, build_toycache_mapping, make_toycache_cluster,
)
from repro.tlaplus import check

config = ToyCacheConfig(bug_wrong_max=True)
spec = build_example_spec()
mapping = build_toycache_mapping()
graph = canonicalize(check(spec, max_states=10_000, truncate=True).graph)
suite = generate_test_cases(graph, por=True, seed=0).truncated(4)
factory = lambda: make_toycache_cluster(config)
plan = plan_faults(graph, suite, mapping, "1", factory().node_ids,
                   target="toycache")
result = shrink_plan(
    plan, graph, suite, mapping, factory,
    RunnerConfig(match_timeout=1.0, done_timeout=1.0, quiesce_delay=0.05),
    FaultConfig(convergence_timeout=1.0))
print(result.minimal.to_json(), end="")
print("===")
import io
log = io.StringIO()
result.write_log(log)
print(log.getvalue(), end="")
"""


def build_failing_kit():
    config = ToyCacheConfig(bug_wrong_max=True)
    spec = build_example_spec()
    mapping = build_toycache_mapping()
    graph = canonicalize(check(spec, max_states=10_000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0).truncated(4)
    factory = lambda: make_toycache_cluster(config)
    plan = plan_faults(graph, suite, mapping, "1", factory().node_ids,
                       target="toycache")
    return plan, graph, suite, mapping, factory


@pytest.mark.skipif(not fork_available(),
                    reason="parallel executor needs fork")
def test_worker_count_does_not_change_the_minimal_plan(tmp_path):
    plan, graph, suite, mapping, factory = build_failing_kit()
    outputs = []
    for workers in (1, 4):
        result = shrink_plan(plan, graph, suite, mapping, factory,
                             _RUNNER, _FAULTS, workers=workers)
        path = tmp_path / f"log-w{workers}.jsonl"
        result.write_log(str(path))
        outputs.append((result.minimal.to_json(), path.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.slow
def test_hash_seed_does_not_change_the_minimal_plan():
    outputs = []
    for hash_seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", _KIT_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert "===" in outputs[0]
    assert outputs[0] == outputs[1]
