"""Fault plans: derivation from the graph, canonical serialization,
and splice materialization (`plan_faults` / `apply_plan`)."""

import io

import pytest

from repro.artifact import ArtifactError
from repro.core import generate_test_cases
from repro.engine import canonicalize
from repro.faults import (
    FaultPlan,
    InjectionMode,
    PLAN_FORMAT,
    apply_plan,
    plan_faults,
)
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import XraftConfig, build_xraft_mapping
from repro.tlaplus import check

NODE_IDS = ["n1", "n2", "n3"]

GUARD_OPTS = dict(
    servers=tuple(NODE_IDS), max_term=1, max_client_requests=0,
    enable_restart=True, max_restarts=1,
    enable_drop=True, max_drops=1,
    enable_duplicate=True, max_duplicates=1,
    candidates=("n1",), name="faults-guard",
)


@pytest.fixture(scope="module")
def kit():
    options = RaftSpecOptions(**GUARD_OPTS)
    spec = build_raft_spec(options)
    mapping = build_xraft_mapping(spec, XraftConfig())
    graph = canonicalize(check(spec, max_states=50_000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0)
    return options, mapping, graph, suite


class TestPlanDerivation:
    def test_modeled_kinds_come_from_the_spec_vocabulary(self, kit):
        options, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        modeled_actions = {i.edge.label.name for i in plan.modeled()}
        assert modeled_actions  # fault edges exist in this model
        assert modeled_actions <= set(options.fault_actions())

    def test_modeled_splices_reference_real_graph_edges(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        for injection in plan.modeled():
            ref = injection.edge
            assert graph.edge_between(ref.src, ref.dst, ref.label) is not None

    def test_chaos_mode_adds_disruptive_injections(self, kit):
        _, mapping, graph, suite = kit
        tame = plan_faults(graph, suite, mapping, "1", NODE_IDS, chaos=False)
        wild = plan_faults(graph, suite, mapping, "1", NODE_IDS, chaos=True)
        assert not any(i.disruptive for i in tame.injections)
        assert any(i.disruptive for i in wild.injections)
        assert len(wild) > len(tame)

    def test_at_least_three_distinct_kinds(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        assert len(plan.kinds()) >= 3

    def test_chaos_for_returns_step_ordered_injections(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS, chaos=True)
        for case in suite:
            hits = plan.chaos_for(case.case_id)
            assert [i.step_index for i in hits] == sorted(
                i.step_index for i in hits)
            assert all(i.mode is InjectionMode.CHAOS for i in hits)


class TestPlanSerialization:
    def test_same_seed_is_byte_identical(self, kit):
        _, mapping, graph, suite = kit
        first = plan_faults(graph, suite, mapping, "7", NODE_IDS, chaos=True)
        second = plan_faults(graph, suite, mapping, "7", NODE_IDS, chaos=True)
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self, kit):
        _, mapping, graph, suite = kit
        first = plan_faults(graph, suite, mapping, "7", NODE_IDS)
        second = plan_faults(graph, suite, mapping, "8", NODE_IDS)
        assert first.to_json() != second.to_json()

    def test_roundtrip_preserves_the_plan(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "7", NODE_IDS, chaos=True)
        buffer = io.StringIO()
        plan.save(buffer)
        buffer.seek(0)
        loaded = FaultPlan.load(buffer)
        assert loaded.to_json() == plan.to_json()
        assert loaded.seed == plan.seed
        assert loaded.chaos == plan.chaos

    def test_format_marker_is_checked(self):
        with pytest.raises(ArtifactError,
                           match="is not a mocket-fault-plan/1 file"):
            FaultPlan.load(io.StringIO('{"format": "something-else"}'))
        assert PLAN_FORMAT == "mocket-fault-plan/1"


class TestApplyPlan:
    def test_derived_cases_are_appended_with_fresh_ids(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        augmented = apply_plan(suite, graph, plan)
        base_ids = {case.case_id for case in suite}
        derived_ids = {case.case_id for case in augmented} - base_ids
        assert derived_ids == {i.derived_case_id for i in plan.modeled()}
        assert len(augmented) == len(suite) + len(plan.modeled())

    def test_derived_cases_are_verified_paths(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        augmented = apply_plan(suite, graph, plan)
        for injection in plan.modeled():
            derived = next(c for c in augmented
                           if c.case_id == injection.derived_case_id)
            # contiguous graph path: every step resolves to a real edge
            for step in derived.steps:
                assert graph.edge_between(step.src_id, step.dst_id,
                                          step.label) is not None
            assert derived.steps[injection.step_index].label == \
                injection.edge.label

    def test_truncation_composes_with_planning(self, kit):
        _, mapping, graph, suite = kit
        capped = suite.truncated(2)
        plan = plan_faults(graph, capped, mapping, "1", NODE_IDS)
        augmented = apply_plan(capped, graph, plan)
        # derived cases ride along even though the base suite was capped
        assert len(augmented) == 2 + len(plan.modeled())

    def test_unknown_case_is_rejected(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        if not plan.modeled():
            pytest.skip("model produced no modeled splices")
        plan.modeled()[0].case_id = 10_000
        with pytest.raises(ValueError, match="unknown case"):
            apply_plan(suite, graph, plan)


class TestMultiFaultPlanning:
    """`max_faults_per_case=k`: the widened vocabulary, the per-case
    legality rules, and the k == 1 compatibility promise."""

    LEGACY_CHAOS = {"partition", "reorder", "bounce", "crash"}
    WIDE_CHAOS = {"link_cut", "delay", "partial_partition", "corrupt"}

    def chaos_by_case(self, plan):
        grouped = {}
        for injection in plan.injections:
            if injection.mode is InjectionMode.CHAOS:
                grouped.setdefault(injection.case_id, []).append(injection)
        return grouped

    def test_budget_below_one_is_rejected(self, kit):
        _, mapping, graph, suite = kit
        with pytest.raises(ValueError, match="max_faults_per_case"):
            plan_faults(graph, suite, mapping, "1", NODE_IDS,
                        max_faults_per_case=0)

    def test_k1_stays_on_the_legacy_vocabulary(self, kit):
        _, mapping, graph, suite = kit
        explicit = plan_faults(graph, suite, mapping, "1", NODE_IDS,
                               chaos=True, max_faults_per_case=1)
        implicit = plan_faults(graph, suite, mapping, "1", NODE_IDS,
                               chaos=True)
        assert explicit.to_json() == implicit.to_json()
        chaos_kinds = {i.kind for i in explicit.injections
                       if i.mode is InjectionMode.CHAOS}
        assert chaos_kinds <= self.LEGACY_CHAOS

    def test_k3_reaches_the_wide_vocabulary(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS,
                           chaos=True, max_faults_per_case=3)
        kinds = {i.kind for i in plan.injections
                 if i.mode is InjectionMode.CHAOS}
        assert kinds & self.WIDE_CHAOS
        assert "corrupt" in kinds  # odd-index chaos cases trade a slot

    def test_k3_respects_the_per_case_budget_and_legality(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS,
                           chaos=True, max_faults_per_case=3)
        partition_family = {"partition", "partial_partition"}
        for case_id, injections in self.chaos_by_case(plan).items():
            assert len(injections) <= 3, case_id
            assert sum(1 for i in injections if i.disruptive) <= 1, case_id
            assert sum(1 for i in injections
                       if i.kind in partition_family) <= 1, case_id

    def test_k3_is_seed_deterministic(self, kit):
        _, mapping, graph, suite = kit
        first = plan_faults(graph, suite, mapping, "9", NODE_IDS,
                            chaos=True, max_faults_per_case=3)
        second = plan_faults(graph, suite, mapping, "9", NODE_IDS,
                             chaos=True, max_faults_per_case=3)
        assert first.to_json() == second.to_json()

    def test_single_node_cluster_skips_link_kinds(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", ["solo"],
                           chaos=True, max_faults_per_case=3)
        for injection in plan.injections:
            if injection.mode is InjectionMode.CHAOS:
                assert injection.kind not in {"link_cut", "delay",
                                              "partial_partition"}

    def test_modeled_chains_splice_extra_fault_edges(self, kit):
        options, mapping, graph, suite = kit
        single = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        chained = plan_faults(graph, suite, mapping, "1", NODE_IDS,
                              max_faults_per_case=3)
        fault_actions = set(options.fault_actions())

        def chained_faults(plan):
            return sum(
                sum(1 for ref in i.tail if ref.label.name in fault_actions)
                for i in plan.modeled())

        assert chained_faults(single) == 0  # tails prefer non-fault edges
        assert chained_faults(chained) > 0  # k>1 chains verified faults
        # the chained plan still materializes as verified graph paths
        augmented = apply_plan(suite, graph, chained)
        assert len(augmented) == len(suite) + len(chained.modeled())

    def test_wide_params_are_well_formed(self, kit):
        _, mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "3", NODE_IDS,
                           chaos=True, max_faults_per_case=4)
        for injection in plan.injections:
            if injection.kind == "link_cut":
                assert injection.params["src"] != injection.params["dst"]
                assert injection.params["heal_after"] >= 1
            elif injection.kind == "delay":
                assert injection.params["src"] != injection.params["dst"]
                assert 1 <= injection.params["count"] <= 3
            elif injection.kind == "partial_partition":
                group = injection.params["group"]
                assert group == sorted(group)
                assert 1 <= len(group) < len(NODE_IDS)
