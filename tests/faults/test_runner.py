"""FaultRunner end-to-end: the bundled scenarios pin down every corner
of the nemesis contract (bounded stall, convergence mode, heal-on-retry
transparency, modeled message faults), every fault-layer wait ends on
cluster quiescence, and triage attributes what they inject."""

import pytest

from repro.core import RunnerConfig
from repro.core.testbed.report import SuiteResult
from repro.faults import (
    FaultConfig,
    FaultRunner,
    minizk_crash_restart,
    pyxraft_crash_blackout,
    pyxraft_modeled_message_faults,
    pyxraft_partition_transparent,
    raftkv_bounce_leader,
    render_triage,
    triage,
)

_RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0,
                       quiesce_delay=0.05)
_FAULTS = FaultConfig(convergence_timeout=1.0)


def run_scenario(scenario, runner_config=_RUNNER, fault_config=_FAULTS):
    if scenario.target == "pyxraft":
        from repro.systems.pyxraft import (
            XraftConfig, build_xraft_mapping, make_xraft_cluster,
        )

        config = XraftConfig()
        mapping = build_xraft_mapping(scenario.spec, config)
        factory = (lambda servers=scenario.servers, cfg=config:
                   make_xraft_cluster(servers, cfg))
    elif scenario.target == "minizk":
        from repro.systems.minizk import (
            MiniZkConfig, build_minizk_mapping, make_minizk_cluster,
        )

        config = MiniZkConfig()
        mapping = build_minizk_mapping(scenario.spec, config)
        factory = (lambda servers=scenario.servers, cfg=config:
                   make_minizk_cluster(servers, cfg))
    else:
        from repro.systems.raftkv import (
            RaftKvConfig, build_raftkv_mapping, make_raftkv_cluster,
        )

        config = RaftKvConfig()
        mapping = build_raftkv_mapping(scenario.spec, config)
        factory = (lambda servers=scenario.servers, cfg=config:
                   make_raftkv_cluster(servers, cfg))
    tester = FaultRunner(mapping, scenario.graph, factory, scenario.plan,
                         runner_config, fault_config)
    return tester.run_case(scenario.case), tester


class TestBundledScenarios:
    def test_bounce_breaks_reconvergence(self):
        scenario = raftkv_bounce_leader()
        result, _ = run_scenario(scenario)
        assert not result.passed
        assert result.divergence.kind.value == "inconsistent_state"
        assert "no re-convergence" in (result.divergence.detail or "")
        assert any("bounce" in s for s in result.injected_faults)

    def test_crash_stalls_within_budget_instead_of_hanging(self):
        scenario = pyxraft_crash_blackout()
        result, _ = run_scenario(scenario)
        assert not result.passed
        assert result.divergence.kind.value == "stalled"
        assert "all faults healed" in (result.divergence.detail or "")
        # one heal and one re-wait, each ended by quiescence
        assert result.elapsed_seconds < 15

    def test_partition_is_transparent_via_heal_on_retry(self):
        scenario = pyxraft_partition_transparent()
        result, _ = run_scenario(scenario)
        assert result.passed, result.divergence
        assert any("partition" in s for s in result.injected_faults)

    def test_modeled_message_faults_pass_with_exact_checking(self):
        scenario = pyxraft_modeled_message_faults()
        assert scenario.plan.chaos is False
        result, _ = run_scenario(scenario)
        assert result.passed, result.divergence
        action_names = scenario.case.action_names()
        assert "DropMessage" in action_names
        assert "DuplicateMessage" in action_names

    def test_minizk_verified_crash_restart_passes(self):
        # minizk's first verified fault case: Crash/Restart are ZAB spec
        # transitions, so per-step checking stays exact end to end
        scenario = minizk_crash_restart()
        assert scenario.plan.chaos is False
        result, _ = run_scenario(scenario)
        assert result.passed, result.divergence
        action_names = scenario.case.action_names()
        assert "Crash" in action_names
        assert "Restart" in action_names
        assert "BecomeLeading" in action_names


class TestFaultWaitsEndOnQuiescence:
    """The heal-and-re-wait and the convergence check are decided the
    moment the cluster goes idle; their ceilings are far away."""

    def test_convergence_verdict_does_not_wait_out_its_window(self):
        result, _ = run_scenario(raftkv_bounce_leader(),
                                 fault_config=FaultConfig(
                                     convergence_timeout=30.0))
        assert result.divergence.kind.value == "inconsistent_state"
        assert "within 30.0s" in result.divergence.detail
        assert result.elapsed_seconds < 1.0

    def test_stall_verdict_does_not_wait_out_the_match_timeout(self):
        patient = RunnerConfig(match_timeout=30.0, done_timeout=30.0,
                               quiesce_delay=0.05)
        result, _ = run_scenario(pyxraft_crash_blackout(),
                                 runner_config=patient)
        assert result.divergence.kind.value == "stalled"
        assert "all faults healed" in result.divergence.detail
        # well under one 0.25 s backoff pause, let alone match_timeout
        assert result.elapsed_seconds < 0.5


class TestTriage:
    def test_divergence_is_attributed_to_the_injection(self):
        scenario = pyxraft_crash_blackout()
        result, _ = run_scenario(scenario)
        outcome = SuiteResult([result], elapsed_seconds=0.0)
        payload = triage(outcome, scenario.plan)
        assert payload["divergent"] == 1
        assert payload["unattributed"] == 0
        failure = payload["failures"][0]
        assert failure["verdict"] == "fault-induced"
        assert any("crash" in line for line in failure["attributed_to"])

    def test_triage_payload_is_timing_free_and_renders(self):
        scenario = pyxraft_crash_blackout()
        first, _ = run_scenario(scenario)
        second, _ = run_scenario(scenario)
        first_payload = triage(SuiteResult([first], 1.0), scenario.plan)
        second_payload = triage(SuiteResult([second], 2.0), scenario.plan)
        assert first_payload == second_payload
        text = render_triage(first_payload)
        assert "fault-induced" in text

    def test_clean_run_triages_clean(self):
        scenario = pyxraft_partition_transparent()
        result, _ = run_scenario(scenario)
        payload = triage(SuiteResult([result], 0.0), scenario.plan)
        assert payload["divergent"] == 0
        assert payload["unattributed"] == 0
