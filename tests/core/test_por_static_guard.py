"""POR static fast path guard: with the effect-derived independence
relation plugged in, diamond detection and the generated suites must be
**byte-identical** to the legacy join-verified output — across all
bundled models, testgen seeds and hash seeds.  The fast
path is a pure optimisation; any divergence here means the static
certificates changed what POR proves, not just how fast it proves it.

Cost note: suite generation itself (path covering) is independent of
the diamond search, and on the two large graphs (xraft ~5k states, zab
~12k) it dominates wall time.  The guard therefore checks the full
suite bytes on the small models and the excluded-edge sets — the only
POR input to generation — on every model.
"""

import io
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis.effects import analyze_spec
from repro.core import generate_test_cases
from repro.core.testgen.por import diamond_stats, find_diamonds, por_excluded_edges
from repro.specs import build_example_spec
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.tlaplus import check

# the five bundled targets: the four `mocket testgen` models plus the
# scaled-up raft used by the determinism guard (richer diamond structure)
MODELS = {
    "example": lambda: build_example_spec(),
    "xraft": lambda: build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",),
        name="xraft-model")),
    "raftkv": lambda: build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",),
        enable_drop=False, enable_duplicate=False, name="raftkv-model")),
    "zab": lambda: build_zab_spec(ZabSpecOptions(
        max_elections=1, max_crashes=0, max_restarts=0, starters=("n3",),
        name="zab-model")),
    "raft-guard": lambda: build_raft_spec(RaftSpecOptions(
        servers=("n1", "n2", "n3"), max_term=1, max_client_requests=0,
        enable_restart=True, max_restarts=1,
        enable_drop=False, enable_duplicate=False,
        candidates=("n1",), name="raft-guard")),
}

# small enough that two full generations per seed stay under a second
FAST_MODELS = ("example", "raftkv", "raft-guard")


@pytest.fixture(scope="module")
def explored():
    """{model: (graph, independence)} for every bundled target."""
    out = {}
    for name, build in MODELS.items():
        spec = build()
        out[name] = (check(spec).graph, analyze_spec(spec).independence())
    return out


def _suite_json(graph, seed, independence=None):
    buffer = io.StringIO()
    generate_test_cases(graph, por=True, seed=seed,
                        independence=independence).save(buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("model", sorted(MODELS))
class TestByteIdentity:
    def test_diamond_lists_identical(self, explored, model):
        graph, independence = explored[model]
        legacy = find_diamonds(graph)
        static = find_diamonds(graph, independence=independence)
        assert len(legacy) == len(static)
        for a, b in zip(legacy, static):
            assert (a.origin, a.first_a.key(), a.second_a.key(),
                    a.first_b.key(), a.second_b.key()) == \
                   (b.origin, b.first_a.key(), b.second_a.key(),
                    b.first_b.key(), b.second_b.key())

    @pytest.mark.parametrize("seed", [0, 42])
    def test_excluded_edge_sets_identical(self, explored, model, seed):
        # the excluded set is POR's entire influence on generation
        graph, independence = explored[model]
        assert por_excluded_edges(graph, seed=seed) == \
            por_excluded_edges(graph, seed=seed, independence=independence)

    def test_stats_identical(self, explored, model):
        graph, independence = explored[model]
        assert diamond_stats(graph) == \
            diamond_stats(graph, independence=independence)


@pytest.mark.parametrize("model", FAST_MODELS)
@pytest.mark.parametrize("seed", [0, 42])
def test_suites_byte_identical(explored, model, seed):
    graph, independence = explored[model]
    assert _suite_json(graph, seed) == _suite_json(graph, seed, independence)


class TestStaticPathIsExercised:
    def test_bundled_models_have_certified_pairs(self, explored):
        # if every relation were empty the fast path would be vacuous
        for name in ("xraft", "raftkv", "zab", "raft-guard"):
            assert len(explored[name][1]) > 0, name

    def test_empty_relation_still_matches(self, explored):
        from repro.analysis.effects import IndependenceRelation

        graph, _ = explored["raftkv"]
        empty = IndependenceRelation(frozenset())
        assert _suite_json(graph, 0) == _suite_json(graph, 0, empty)


_HASHSEED_SCRIPT = textwrap.dedent("""
    import hashlib, io
    from repro.analysis.effects import analyze_spec
    from repro.core import generate_test_cases
    from repro.specs.raft import RaftSpecOptions, build_raft_spec
    from repro.tlaplus import check

    spec = build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",),
        enable_drop=False, enable_duplicate=False, name="raftkv-model"))
    graph = check(spec).graph
    for independence in (None, analyze_spec(spec).independence()):
        buffer = io.StringIO()
        generate_test_cases(graph, por=True, seed=0,
                            independence=independence).save(buffer)
        print(hashlib.sha256(buffer.getvalue().encode()).hexdigest())
""")


@pytest.mark.slow
def test_suites_stable_across_hash_seeds():
    digests = set()
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    for hash_seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, check=True)
        digests.update(proc.stdout.split())
    # legacy and fast path, under both hash seeds: one suite
    assert len(digests) == 1
