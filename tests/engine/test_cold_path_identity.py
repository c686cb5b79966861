"""Byte-identity guard for the cold path (check -> canonicalize -> testgen).

The value layer (binding tables, interned labels, freeze-once
successors, id-memoized encoding and rendering, path-backed test cases)
is optimised for speed and must never move an output byte: node ids,
edge order, labels, the canonical renumbering and the saved suite are
pinned here as sha256 digests, recorded before those optimisations
landed, for four of the pipeline benchmark's models.  Each hash seed
runs in its own interpreter so ``PYTHONHASHSEED`` really differs.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SCRIPT = textwrap.dedent("""
    import hashlib, io, sys
    from repro.core import generate_test_cases
    from repro.engine import canonicalize
    from repro.specs.raft import RaftSpecOptions, build_raft_spec
    from repro.specs.zab import ZabSpecOptions, build_zab_spec
    from repro.systems.catalog import get_model
    from repro.tlaplus import check
    from repro.tlaplus.dot import to_dot

    def raft(name, duplicate):
        return build_raft_spec(RaftSpecOptions(
            max_term=1, max_client_requests=0, candidates=("n1",),
            enable_drop=False, enable_duplicate=duplicate, name=name))

    specs = {
        "raftkv-model": lambda: raft("raftkv-model", False),
        "raft-dup-model": lambda: raft("raft-dup-model", True),
        "zab-model": lambda: build_zab_spec(ZabSpecOptions(
            max_elections=1, max_crashes=0, max_restarts=0,
            starters=("n1",), name="zab-model")),
        # the CLI's Xraft model: drop + duplicate, the most in_flight labels
        "xraft-model": get_model("xraft"),
    }

    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    for name in sys.argv[1:]:
        spec = specs[name]()
        graph = check(spec).graph
        suite = generate_test_cases(graph, por=True, seed=0)
        buffer = io.StringIO()
        suite.save(buffer)
        print(name, sha(to_dot(graph)), sha(to_dot(canonicalize(graph))),
              sha(buffer.getvalue()))
""")

#: model -> (DOT, canonical DOT, POR suite JSON) sha256, pinned
PINNED = {
    "raftkv-model": (
        "83fb0e8778c59b4b39bd5ee9b31647e6a4192d30542cc52d1e29762680520d07",
        "5520b51e97bcc345745f5e91f445f0b537b1533c9a4ed18d5fda447b32692403",
        "4ab095cb015219072a6824a13818440addf411b68f95437ffb8146e9a1084f22"),
    "raft-dup-model": (
        "0876061d3c795f4faad813b4c342a37fcbc6be70173babb95933516f3e9a14be",
        "32ac4c15f80b3343dad9215505bd49ea2df44e890c697d1333c90e39de08cfe1",
        "7f65253afe87e53291737c69d5d669446fd20024f2663efc3117afd82be17b78"),
    "zab-model": (
        "be7bfdf963f5d6726acbc045910bce7efb86d21981070e8c9d63326b0a29004e",
        "70c8063afde66b6da22dc23fd0748d68323898220629299880502bd1673df596",
        "c9f9419449dd4de6795c261c7ad154e8823c03b5cecb075fa0ab622dd67a1878"),
    # recorded before label interning and the id-memoized encoders
    "xraft-model": (
        "fd4df6d52e11e6ca2f7b2dd63f32c29733edb5fb64358d10727dbc72c12d2790",
        "786d853c761e8cc9d0ce816bcebf8dff23c3c3933a561b6ed09ff9afa2f313d4",
        "b2969c72663056c5125798a2f4b0a177933663be644b1d30eaaab1ac3544af9a"),
}


def _digests(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *PINNED], capture_output=True,
        text=True, env=env, check=True, timeout=300)
    return {name: tuple(rest) for name, *rest in
            (line.split() for line in proc.stdout.splitlines())}


@pytest.mark.slow
@pytest.mark.parametrize("hash_seed", ["0", "42"])
def test_cold_path_bytes_are_pinned(hash_seed):
    assert _digests(hash_seed) == PINNED


def test_profile_script_runs(capsys):
    # benchmarks/profile_cold_path.py produced the committed profiles;
    # no other test imports it
    bench_dir = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks")
    sys.path.insert(0, os.path.abspath(bench_dir))
    try:
        import profile_cold_path
    finally:
        sys.path.pop(0)
    assert profile_cold_path.main(["example", "--top", "3",
                                   "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "== example: 13 states, 18 edges" in out
    for stage in profile_cold_path.STAGES:
        assert f" {stage} " in out
    assert ("   action memo: 42.3% hit of 26 memoized (state, action) "
            "pairs, 15 entries" in out)
    assert "Ordered by: internal time" in out
    assert ("   memory MB: check " in out and ", peak " in out
            and "B/state after check; 56 steps iterated" in out)
