"""The budgeted fuzz campaign loop against a live toy cluster:
trajectory accounting, novelty-gated corpus growth, the unguided
control arm, seed-plan import, and stable bug identities."""

import pytest

from repro.faults import FaultInjection, plan_faults
from repro.fuzz import FuzzError, GraphIndex, fuzz_campaign


def campaign(toykit, **kwargs):
    mapping, cluster_factory, graph, suite = toykit
    defaults = dict(budget=4, fuzz_seed="5", target="toycache")
    defaults.update(kwargs)
    return fuzz_campaign(graph, suite, mapping, cluster_factory,
                         cluster_factory().node_ids, **defaults)


class TestGuidedCampaign:
    @pytest.fixture(scope="class")
    def result(self, toykit):
        return campaign(toykit)

    def test_trajectory_covers_the_whole_budget(self, result):
        assert len(result.trajectory) == result.budget == 4
        assert [r["run"] for r in result.trajectory] == [0, 1, 2, 3]
        assert result.corpus.runs == 4

    def test_coverage_stays_inside_the_graph(self, toykit, result):
        _mapping, _factory, graph, _suite = toykit
        index = GraphIndex(graph)
        assert set(result.corpus.state_hits) <= index.all_states
        assert set(result.corpus.edge_hits) <= index.all_edges
        assert 0 < result.distinct_states <= result.graph_states
        assert 0 < result.distinct_edges <= result.graph_edges

    def test_entries_are_kept_only_on_novelty(self, result):
        kept = {r["kept"] for r in result.trajectory if r["kept"] is not None}
        assert len(result.corpus.entries) == len(kept)
        for record in result.trajectory:
            if record["kept"] is not None:
                assert record["new_states"] or record["new_edges"]

    def test_first_runs_come_from_the_seeded_planner(self, result):
        assert result.trajectory[0]["op"] == "seed"
        assert result.trajectory[0]["parent"] is None

    def test_running_totals_are_monotone(self, result):
        states = [r["states"] for r in result.trajectory]
        edges = [r["edges"] for r in result.trajectory]
        assert states == sorted(states)
        assert edges == sorted(edges)


class TestControlArm:
    def test_unguided_counts_coverage_but_keeps_nothing(self, toykit):
        result = campaign(toykit, budget=2, guided=False)
        assert not result.guided
        assert result.corpus.entries == []
        assert result.distinct_states > 0
        assert all(r["op"] == "unguided" for r in result.trajectory)
        assert all(r["kept"] is None for r in result.trajectory)


class TestSeedPlans:
    def test_imported_plans_run_before_generated_ones(self, toykit):
        mapping, cluster_factory, graph, suite = toykit
        plan = plan_faults(graph, suite, mapping, "9",
                           cluster_factory().node_ids)
        result = campaign(toykit, budget=2, seed_plans=[plan])
        assert result.trajectory[0]["op"] == "import"
        assert result.trajectory[1]["op"] == "seed"

    def test_illegal_seed_plan_is_rejected_up_front(self, toykit):
        mapping, cluster_factory, graph, suite = toykit
        plan = plan_faults(graph, suite, mapping, "9",
                           cluster_factory().node_ids)
        victim = plan.injections[0]
        orphaned = plan.subset([FaultInjection(
            victim.mode, victim.kind, 10_000, victim.step_index,
            params=victim.params, derived_case_id=victim.derived_case_id,
            edge=victim.edge, tail=victim.tail)])
        with pytest.raises(FuzzError, match="not legal"):
            campaign(toykit, budget=1, seed_plans=[orphaned])


class TestBudget:
    def test_budget_must_be_positive(self, toykit):
        with pytest.raises(FuzzError, match="budget"):
            campaign(toykit, budget=0)


class TestBugs:
    def test_buggy_target_yields_stable_graph_anchored_ids(
            self, buggy_toykit):
        first = campaign(buggy_toykit, budget=2)
        assert first.bugs, "bug_wrong_max must diverge under faults"
        for bug_id, bug in first.bugs.items():
            assert bug_id.startswith("dv-")
            assert bug["kind"]
            assert bug["headline"]
        second = campaign(buggy_toykit, budget=2)
        assert set(second.bugs) == set(first.bugs)
