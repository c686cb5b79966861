"""Verified (modeled) crash/restart fault cases against minizk.

With ``ZabSpecOptions.crashers`` narrowing the fault vocabulary to one
node, the crash/restart state space stays small enough to plan modeled
splices from — giving minizk end-to-end *verified* fault coverage: the
spliced Crash/Restart steps are spec transitions, so the fault runner
checks every step exactly and a correct implementation must pass.
"""

import pytest

from repro.core import RunnerConfig, generate_test_cases
from repro.engine import canonicalize
from repro.faults import FaultConfig, FaultRunner, apply_plan, plan_faults, triage
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.systems.minizk import (
    MiniZkConfig,
    build_minizk_mapping,
    make_minizk_cluster,
)
from repro.tlaplus import check

SERVERS = ("n1", "n2", "n3")

_RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0,
                       quiesce_delay=0.05)
_FAULTS = FaultConfig(convergence_timeout=1.0)


@pytest.fixture(scope="module")
def kit():
    options = ZabSpecOptions(
        servers=SERVERS, max_elections=1, max_crashes=1, max_restarts=1,
        starters=("n3",), crashers=("n1",), name="zab-fault-kit",
    )
    spec = build_zab_spec(options)
    mapping = build_minizk_mapping(spec, MiniZkConfig())
    graph = canonicalize(check(spec, max_states=4_000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0).truncated(2)
    return options, mapping, graph, suite


def test_planner_splices_verified_crash_restart(kit):
    options, mapping, graph, suite = kit
    plan = plan_faults(graph, suite, mapping, "1", SERVERS,
                       target="minizk", max_faults_per_case=2)
    modeled = plan.modeled()
    assert modeled, "zab fault edges must be reachable from the suite"
    kinds = {injection.kind for injection in modeled}
    assert kinds <= {"crash", "restart"}
    for injection in modeled:
        assert injection.edge.label.params.get("i") == "n1"  # crashers pin


def test_minizk_runs_verified_fault_cases_end_to_end(kit):
    _, mapping, graph, suite = kit
    plan = plan_faults(graph, suite, mapping, "1", SERVERS,
                       target="minizk", max_faults_per_case=2)
    augmented = apply_plan(suite, graph, plan)
    derived_ids = {injection.derived_case_id for injection in plan.modeled()}
    fault_names = {"Crash", "Restart"}
    assert any(fault_names & set(case.action_names())
               for case in augmented if case.case_id in derived_ids)

    runner = FaultRunner(
        mapping, graph,
        lambda: make_minizk_cluster(SERVERS, MiniZkConfig()),
        plan, _RUNNER, _FAULTS)
    outcome = runner.run_suite(augmented)
    payload = triage(outcome, plan)
    assert payload["unattributed"] == 0, payload
    # every verified fault case passed with exact per-step checking
    for result in outcome.results:
        if result.case.case_id in derived_ids:
            assert result.passed, result.divergence
