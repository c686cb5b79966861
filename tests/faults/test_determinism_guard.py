"""Determinism guard for fault injection (the tentpole's core contract):

* the same ``--fault-seed`` over the same model yields a byte-identical
  ``FaultPlan`` JSON — regardless of how the graph was numbered
  (canonical renumbering erases discovery order),
* running the injected suite with ``workers=1`` and ``workers=2``
  yields identical divergence reports and triage payloads.

A regression here makes fault runs unreproducible, which silently
invalidates every replayed plan and triage verdict.
"""

import pytest

from repro.core import RunnerConfig, generate_test_cases
from repro.engine import canonicalize, fork_available
from repro.faults import (
    FaultConfig,
    FaultRunner,
    apply_plan,
    plan_faults,
    triage,
)
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import (
    XraftConfig,
    build_xraft_mapping,
    make_xraft_cluster,
)
from repro.tlaplus import check

NODE_IDS = ("n1", "n2", "n3")

GUARD_OPTS = dict(
    servers=NODE_IDS, max_term=1, max_client_requests=0,
    enable_restart=True, max_restarts=1,
    enable_drop=True, max_drops=1,
    enable_duplicate=True, max_duplicates=1,
    candidates=("n1",), name="faults-guard",
)

_RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0,
                       quiesce_delay=0.05)
_FAULTS = FaultConfig(convergence_timeout=1.0)


def build_kit():
    spec = build_raft_spec(RaftSpecOptions(**GUARD_OPTS))
    mapping = build_xraft_mapping(spec, XraftConfig())
    graph = canonicalize(check(spec, max_states=50_000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0).truncated(4)
    return spec, mapping, graph, suite


def report_key(outcome):
    """The timing-free projection of a suite outcome."""
    return [
        (r.case.case_id, r.passed, list(r.injected_faults),
         None if r.divergence is None
         else (r.divergence.kind.value, r.divergence.step_index,
               r.divergence.action))
        for r in outcome.results
    ]


class TestPlanBytes:
    def test_same_seed_same_exploration_is_byte_identical(self):
        _, mapping, graph, suite = build_kit()
        first = plan_faults(graph, suite, mapping, "7", NODE_IDS, chaos=True)
        second = plan_faults(graph, suite, mapping, "7", NODE_IDS, chaos=True)
        assert first.to_json() == second.to_json()


@pytest.mark.skipif(not fork_available(),
                    reason="parallel executor needs fork")
class TestReportIdentity:
    def test_worker_count_does_not_change_the_report(self):
        spec, mapping, graph, suite = build_kit()
        plan = plan_faults(graph, suite, mapping, "7", NODE_IDS, chaos=True)
        injected = apply_plan(suite, graph, plan)
        config = XraftConfig()

        def factory(servers=NODE_IDS, cfg=config):
            return make_xraft_cluster(servers, cfg)

        outcomes = []
        for workers in (1, 2):
            tester = FaultRunner(mapping, graph, factory, plan,
                                 _RUNNER, _FAULTS)
            outcomes.append(tester.run_suite(injected, workers=workers))
        assert report_key(outcomes[0]) == report_key(outcomes[1])
        assert triage(outcomes[0], plan) == triage(outcomes[1], plan)
