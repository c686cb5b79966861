"""Acceptance: a seeded multi-fault chaos run against raftkv that
fails with an unattributed divergence shrinks — fully deterministically
— to a minimal repro.

The kit plants ``bug_drop_higher_term_response`` and picks four cases
that all diverge on it; seed '21' is pinned because its plan lands
every injection for case 253 *after* that case's divergence step, so
triage cannot attribute the failure to the faults — the unattributed
divergence a shrink is worth running for.  The shrinker then proves
the point the hard way: scoped replay, then the empty-plan probe still
fails, so the minimal repro is zero injections (fault-independent) in
three replays.
"""

import json

import pytest

from repro.core import generate_test_cases
from repro.core.testgen.testcase import TestSuite
from repro.engine import canonicalize
from repro.faults import (
    FaultRunner,
    apply_plan,
    plan_faults,
    shrink_plan,
    triage,
)
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.raftkv import (
    RaftKvConfig,
    build_raftkv_mapping,
    make_raftkv_cluster,
)
from repro.tlaplus import check

SERVERS = ("n1", "n2")
SEED = "21"
# the four cases of the por suite (seed 0) that diverge on the planted
# bug; 253 is the one whose seed-'21' injections all land post-divergence
PICK = [147, 253, 254, 256]
UNATTRIBUTED_CASE = 253
UNATTRIBUTED_KIND = "missing_action"


@pytest.fixture(scope="module")
def kit():
    options = RaftSpecOptions(
        servers=SERVERS, max_term=2, max_client_requests=0,
        enable_restart=False, enable_drop=False, enable_duplicate=False,
        candidates=SERVERS, name="raftkv-accept",
    )
    spec = build_raft_spec(options)
    config = RaftKvConfig(bug_drop_higher_term_response=True)
    mapping = build_raftkv_mapping(spec, config)
    graph = canonicalize(check(spec, max_states=5_000, truncate=True).graph)
    full = generate_test_cases(graph, por=True, seed=0)
    suite = TestSuite([c for c in full if c.case_id in PICK],
                      graph=full.graph,
                      excluded_edges=full.excluded_edges,
                      uncovered_edges=full.uncovered_edges)
    factory = lambda: make_raftkv_cluster(SERVERS, config)
    plan = plan_faults(graph, suite, mapping, SEED, SERVERS,
                       chaos=True, target="raftkv", max_faults_per_case=3)
    return mapping, graph, suite, factory, plan


@pytest.mark.slow
class TestAcceptance:
    def test_chaos_run_fails_with_an_unattributed_divergence(self, kit):
        mapping, graph, suite, factory, plan = kit
        assert len(plan) >= 10
        # the widened vocabulary is actually exercised, not just planned
        assert {i.kind for i in plan.injections} >= {
            "link_cut", "delay", "corrupt"}
        steps = [i.step_index for i in plan.injections
                 if i.case_id == UNATTRIBUTED_CASE]
        assert steps and all(s > 6 for s in steps)  # all post-divergence

        runner = FaultRunner(mapping, graph, factory, plan)
        outcome = runner.run_suite(apply_plan(suite, graph, plan))
        payload = triage(outcome, plan)
        assert payload["unattributed"] >= 1, payload
        unattributed = [f for f in payload["failures"]
                        if f["verdict"] == "unattributed"]
        assert {f["case_id"] for f in unattributed} == {UNATTRIBUTED_CASE}
        assert {f["kind"] for f in unattributed} == {UNATTRIBUTED_KIND}

    def test_shrinks_deterministically_to_a_minimal_repro(self, kit):
        mapping, graph, suite, factory, plan = kit
        first = shrink_plan(plan, graph, suite, mapping, factory,
                            budget=200, workers=1)
        assert first.converged
        assert first.final_count <= 3
        # the minimal plan reproduces the same unattributed kind — here
        # with zero injections: the planted bug needs no faults at all
        assert first.signature == [UNATTRIBUTED_KIND]
        assert first.fault_independent
        assert first.final_count == 0
        assert first.replays <= 3

        again = shrink_plan(plan, graph, suite, mapping, factory,
                            budget=200, workers=4)
        assert first.minimal.to_json() == again.minimal.to_json()
        assert json.dumps(first.log) == json.dumps(again.log)
