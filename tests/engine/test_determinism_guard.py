"""Determinism guard (the checker's core contract, pinned as a test):

for real models — raft and zab — the state graph (ids, edge order, DOT
bytes) and the suite JSON generated from it must not move with
``PYTHONHASHSEED``, and a run killed in one process and resumed in
another, under a different hash seed, must land on the same graph.  A
regression here silently invalidates every downstream artifact (suites,
replays, bug reports), so these tests are deliberately end-to-end:
every exploration runs in its own interpreter.
"""

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
HASH_SEEDS = ("0", "42")
KILL_LEVEL = 3

# scaled-down models (seconds, not minutes, per exploration)
_SCRIPT = textwrap.dedent("""
    import hashlib, io, sys
    from repro.core import generate_test_cases
    from repro.engine import CheckpointStore
    from repro.specs.raft import RaftSpecOptions, build_raft_spec
    from repro.specs.zab import ZabSpecOptions, build_zab_spec
    from repro.tlaplus import check
    from repro.tlaplus.dot import to_dot

    model, mode, directory = sys.argv[1:4]
    if model == "raft":
        spec = build_raft_spec(RaftSpecOptions(
            servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
            enable_restart=True, max_restarts=1,
            enable_drop=False, enable_duplicate=False,
            candidates=("n1",), name="raft-guard"))
    else:
        spec = build_zab_spec(ZabSpecOptions(
            servers=("n1", "n2"), max_elections=2, max_crashes=0,
            max_restarts=0, starters=("n1",), name="zab-guard"))

    class KillAfterLevel(CheckpointStore):
        def save(self, payload):
            super().save(payload)
            if payload["level"] == %d:
                sys.exit(0)

    if mode == "kill":
        check(spec, checkpoint=KillAfterLevel(directory))
        raise AssertionError("the run outlived its kill level")
    if mode == "resume":
        graph = check(spec, checkpoint=directory, resume=True).graph
    else:
        graph = check(spec).graph
    print(hashlib.sha256(to_dot(graph).encode()).hexdigest())
    for seed in (0, 1):
        buffer = io.StringIO()
        generate_test_cases(graph, por=True, seed=seed).save(buffer)
        print(hashlib.sha256(buffer.getvalue().encode()).hexdigest())
""" % KILL_LEVEL)


def _run(model, mode, hash_seed, directory="-"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, model, mode, str(directory)],
        capture_output=True, text=True, env=env, check=True, timeout=240)
    return proc.stdout.split()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """{model: {(mode, hash seed): [dot sha, suite sha seed 0, seed 1]}}"""
    out = {}
    for model in ("raft", "zab"):
        runs = {("fresh", seed): _run(model, "fresh", seed)
                for seed in HASH_SEEDS}
        # killed under one hash seed, resumed under the other
        for killed, resumed in (HASH_SEEDS, HASH_SEEDS[::-1]):
            directory = tmp_path_factory.mktemp(f"ck-{model}-{killed}")
            assert _run(model, "kill", killed, directory) == []
            runs[("resumed", resumed)] = _run(model, "resume", resumed,
                                              directory)
        out[model] = runs
    return out


@pytest.mark.slow
@pytest.mark.parametrize("model", ["raft", "zab"])
class TestDeterminismGuard:
    def test_graph_is_bit_identical_across_hash_seeds(self, digests, model):
        assert len({run[0] for run in digests[model].values()}) == 1

    def test_resumed_graph_is_bit_identical_to_fresh(self, digests, model):
        runs = digests[model]
        for seed in HASH_SEEDS:
            assert runs[("resumed", seed)] == runs[("fresh", seed)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_testgen_suites_identical_across_hash_seeds(self, digests, model,
                                                        seed):
        assert len({run[1 + seed] for run in digests[model].values()}) == 1


@pytest.mark.slow
@pytest.mark.parametrize("model", ["raftkv", "xraft", "zab"])
def test_check_dot_bytes_identical_across_hash_seeds(tmp_path, model):
    # the human label= used to be repr() of frozensets, whose order
    # follows the hash seed
    shas = set()
    for hash_seed in HASH_SEEDS:
        path = tmp_path / f"{model}-{hash_seed}.dot"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", model,
             "--dot", str(path)],
            capture_output=True, text=True, env=env, check=True, timeout=240)
        shas.add(hashlib.sha256(path.read_bytes()).hexdigest())
    assert len(shas) == 1
