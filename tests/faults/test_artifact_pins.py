"""Pinned bytes of every seeded fault artifact.

Fault plans, fuzz corpora and shrink logs are replayable files: a
plan written by one release must be the plan the next release writes
for the same seed, or saved plans, cached corpora and shrink repros
stop meaning what they say.  The other guards compare runs of *one*
build (two seeds, two worker counts); this one compares against
sha256 digests recorded once, so a refactor of the planner, the
legality rules, the mutators or the shrinker that moves a single
seeded draw fails here.

One digest per artifact:

* ``plan_faults(...).to_json()`` for raftkv, pyxraft and minizk ×
  ``max_faults_per_case`` 1/2/3 × chaos off/on (10 base cases, fault
  seed ``"3"``);
* every weaker and stronger variant of the raftkv k=3 chaos plan's
  injections, in the order the shrinker and fuzzer index them;
* the corpus files of 12-run raftkv campaigns at ``max_faults=3``:
  guided (fuzz seed ``"8"``), guided from an imported empty plan (fuzz
  seed ``"9"``, which reaches ``splice_chaos``), and unguided.  Without
  ``chaos`` no run diverges; a diverging run's hit counts depend on
  where the race ends, so a chaos corpus is not byte-stable;
* the JSONL log of a raftkv ``shrink_plan`` run.

Moving a digest on purpose means every saved artifact of that kind
moves too; say so where the change is recorded.
"""

import hashlib
import io
import os

from repro.core import RunnerConfig, generate_test_cases
from repro.core.testgen.testcase import TestSuite
from repro.engine import canonicalize
from repro.faults import FaultConfig, FaultPlan, plan_faults, shrink_plan
from repro.faults.kinds import stronger_variants, weaker_variants
from repro.fuzz import fuzz_campaign
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.catalog import RUNNER, kit
from repro.systems.raftkv import (
    RaftKvConfig,
    build_raftkv_mapping,
    make_raftkv_cluster,
)
from repro.tlaplus import check

PINNED = {
    'corpus/raftkv/guided': 'd6bb48dd7a519dfd3ee04ea9cd38489759dfb879897085a53eaab5b0057d3b1e',
    'corpus/raftkv/guided-from-empty': 'abf613aa61d7665b17fb829ee19f12c72cc45fa04487668923dc786684998eba',
    'corpus/raftkv/unguided': '06577a03beb34c48dfd0ef6d8d42910c0080b595d618dc2aac23a3ef4589beb3',
    'plan/minizk/k1/chaos=False': '74a550dcdd60769d3f717ebf95b481541e233e52b0d3bed0241639ac17852288',
    'plan/minizk/k1/chaos=True': '15908050d5db22daa2a345b8cf3c51f2b41df9e70e5941aabf43014604261484',
    'plan/minizk/k2/chaos=False': '7f1deabfa4ad4017e3feef719ca94de103c311e835a053a0c4ff586731a829cf',
    'plan/minizk/k2/chaos=True': '0e456d1ecdd1df95fac42dd0931d985c7ed057bd8ed0c164078057e7437b223e',
    'plan/minizk/k3/chaos=False': '529d167d2805d25cc94f0e024bda7616b618e837bcd945498ba4b90a99619a5c',
    'plan/minizk/k3/chaos=True': 'ef9ed85a465642bcb782bd16bdf631bcded6595863c325d0b60b4d3e665783d2',
    'plan/pyxraft/k1/chaos=False': '20508a1c8ab84d91c1eacd553b03f369f8614537f62f2717a6ca58238fe07d0f',
    'plan/pyxraft/k1/chaos=True': '07737092e180ef2a74bd777f1943e38e8877d86f5c36bcbb9e424ad84e646ada',
    'plan/pyxraft/k2/chaos=False': 'c86c64a20d4ef20fa13f11abbb51400e3fd653a9625d8a77de0846e2aa55765c',
    'plan/pyxraft/k2/chaos=True': 'de3bda66b6a921550f8bbbfb54d38412ef466084149cafb1e32e81f2e8516ea2',
    'plan/pyxraft/k3/chaos=False': '5a43c795d89ccc7dfcb3bc498aec19b003188c12c8e9677874eb6cec8508fd0f',
    'plan/pyxraft/k3/chaos=True': '530e4ea0b0aa274c0ee65aeb3fc2e6ed09d07cd204541997dcd29fb4e263954c',
    'plan/raftkv/k1/chaos=False': '799bf6c7bdf33154794bc9e9b0795272e5dcaab0b8659c1aa5b43d890a98ab1b',
    'plan/raftkv/k1/chaos=True': '41c06761862dd3cd0e60bc915973a6084dfad1afd81eab0d9eff7265fd253d48',
    'plan/raftkv/k2/chaos=False': '6c7d60a26d5c75ce0098b652f7dd1a3b0499595ddae9949e35683173dab8b50b',
    'plan/raftkv/k2/chaos=True': 'bf79b1d84e4c71ebfd519ebf4457a32e37fc52932341a89fb7b2372b0d677078',
    'plan/raftkv/k3/chaos=False': '6ae3a81860c1675014b053634a8f36977aa81e3b8014a36fa8786618168c900c',
    'plan/raftkv/k3/chaos=True': '260449e7baf04efcc2db6afcf1f063fc14f1fdf3f020f6b4ca29969cf41f7352',
    'shrink/raftkv': '5a649abaf2c4d0d2da173464a350ba700922b6471f41a2ed25634eaa34225a6f',
    'variants/raftkv': 'a2bc38110423aef62f2c1d4031e8ff7f08424cc999d464bd1d318abf4975f6ce',
}


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def catalog_kit(target):
    spec, mapping, factory = kit(target)
    graph = canonicalize(check(spec, max_states=100_000,
                               truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0)
    return mapping, factory, graph, suite


def corpus_digest(corpus_dir):
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(corpus_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, corpus_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def shrink_log():
    """The raftkv acceptance shrink: seed '21' over four cases that
    diverge on ``bug_drop_higher_term_response``."""
    servers = ("n1", "n2")
    spec = build_raft_spec(RaftSpecOptions(
        servers=servers, max_term=2, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=servers, name="raftkv-accept"))
    config = RaftKvConfig(bug_drop_higher_term_response=True)
    mapping = build_raftkv_mapping(spec, config)
    graph = canonicalize(check(spec, max_states=5_000, truncate=True).graph)
    full = generate_test_cases(graph, por=True, seed=0)
    suite = TestSuite([c for c in full if c.case_id in (147, 253, 254, 256)],
                      graph=full.graph, excluded_edges=full.excluded_edges,
                      uncovered_edges=full.uncovered_edges)
    plan = plan_faults(graph, suite, mapping, "21", servers, chaos=True,
                       target="raftkv", max_faults_per_case=3)
    result = shrink_plan(
        plan, graph, suite, mapping,
        lambda: make_raftkv_cluster(servers, config),
        RunnerConfig(match_timeout=1.0, done_timeout=1.0,
                     quiesce_delay=0.05),
        FaultConfig(convergence_timeout=1.0))
    buffer = io.StringIO()
    result.write_log(buffer)
    return result.minimal.to_json() + buffer.getvalue()


def test_fault_artifacts_match_their_pinned_digests(tmp_path):
    digests = {}
    kits = {target: catalog_kit(target)
            for target in ("raftkv", "pyxraft", "minizk")}
    for target, (mapping, factory, graph, suite) in kits.items():
        base = suite.truncated(10)
        for k in (1, 2, 3):
            for chaos in (False, True):
                plan = plan_faults(graph, base, mapping, "3",
                                   factory().node_ids, chaos=chaos,
                                   target=target, max_faults_per_case=k)
                digests[f"plan/{target}/k{k}/chaos={chaos}"] = sha(
                    plan.to_json())

    mapping, factory, graph, suite = kits["raftkv"]
    node_ids = factory().node_ids
    wide = plan_faults(graph, suite.truncated(10), mapping, "3", node_ids,
                       chaos=True, target="raftkv", max_faults_per_case=3)
    variants = [variant for injection in wide.injections
                for variant in (weaker_variants(injection)
                                + stronger_variants(injection, node_ids))]
    assert variants
    digests["variants/raftkv"] = sha(wide.subset(variants).to_json())

    base = suite.truncated(4)
    empty = FaultPlan("empty", [], target="raftkv")
    for name, fuzz_seed, guided, seeds in (
            ("guided", "8", True, ()),
            ("guided-from-empty", "9", True, (empty,)),
            ("unguided", "8", False, ())):
        corpus_dir = tmp_path / name
        fuzz_campaign(graph, base, mapping, factory, node_ids, budget=12,
                      fuzz_seed=fuzz_seed, corpus_dir=str(corpus_dir),
                      target="raftkv", max_faults=3, guided=guided,
                      seed_plans=seeds, runner_config=RUNNER)
        digests[f"corpus/raftkv/{name}"] = corpus_digest(corpus_dir)

    digests["shrink/raftkv"] = sha(shrink_log())

    for key, value in sorted(digests.items()):
        print(f"    {key!r}: {value!r},")
    assert digests == PINNED
