"""Shrinking a failing fault plan to a minimal repro.

The ddmin machinery is exercised synthetically (predicates over fake
injection lists — single culprit, a dependent pair, a monotone set) so
its 1-minimality guarantee is pinned independently of any runner; the
end-to-end path replays a real failing toycache campaign and must
converge to the fault-independence proof (0 injections) in a handful
of replays, byte-identically run over run.
"""

import json

import pytest

from repro.core import RunnerConfig, generate_test_cases
from repro.engine import canonicalize
from repro.faults import (
    ChaosKind,
    FaultConfig,
    FaultInjection,
    InjectionMode,
    plan_faults,
    shrink_plan,
)
from repro.faults.plan import EdgeRef
from repro.faults.shrink import (
    _Session,
    _ddmin,
    _shrink_params,
    _split,
    _weaker_variants,
)
from repro.specs import build_example_spec
from repro.systems.toycache import (
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check

_RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0,
                       quiesce_delay=0.05)
_FAULTS = FaultConfig(convergence_timeout=1.0)


def fake_injections(n):
    return [FaultInjection(InjectionMode.CHAOS, ChaosKind.REORDER.value,
                           case_id=0, step_index=index,
                           params={"node": "server", "tag": index})
            for index in range(n)]


def counting(predicate, session):
    """Wrap a set-predicate as the shrinker's ``fails`` callback."""
    def fails(items, phase="ddmin"):
        session.replays += 1
        return predicate({i.params["tag"] for i in items})
    return fails


class TestDdminSynthetic:
    def test_single_culprit_is_isolated(self):
        items = fake_injections(12)
        session = _Session(budget=500)
        minimal, converged = _ddmin(
            items, counting(lambda tags: 7 in tags, session), session)
        assert converged
        assert [i.params["tag"] for i in minimal] == [7]

    def test_dependent_pair_survives_together(self):
        items = fake_injections(10)
        session = _Session(budget=500)
        minimal, converged = _ddmin(
            items, counting(lambda tags: {3, 7} <= tags, session), session)
        assert converged
        assert sorted(i.params["tag"] for i in minimal) == [3, 7]

    def test_monotone_predicate_reaches_one_minimal(self):
        # fails whenever >= 3 injections remain: any 3 form a 1-minimal set
        items = fake_injections(9)
        session = _Session(budget=500)
        minimal, converged = _ddmin(
            items, counting(lambda tags: len(tags) >= 3, session), session)
        assert converged
        assert len(minimal) == 3

    def test_budget_exhaustion_returns_best_so_far(self):
        items = fake_injections(16)
        session = _Session(budget=3)
        minimal, converged = _ddmin(
            items, counting(lambda tags: 5 in tags, session), session)
        assert not converged
        assert any(i.params["tag"] == 5 for i in minimal)

    def test_split_covers_all_items_exactly_once(self):
        items = fake_injections(7)
        for granularity in (2, 3, 4, 7):
            chunks = _split(items, granularity)
            flat = [i for chunk in chunks for i in chunk]
            assert flat == items


class TestParamShrinking:
    def test_weaker_variants_cover_every_dimension(self):
        tail = [EdgeRef(1, 2, 0), EdgeRef(2, 3, 0)]
        injection = FaultInjection(
            InjectionMode.CHAOS, ChaosKind.DELAY.value, case_id=0,
            step_index=1, params={"count": 3, "group": ["n1", "n2"],
                                  "heal_after": 2},
            tail=tail)
        variants = _weaker_variants(injection)
        assert len(variants) == 4
        assert [len(v.tail) for v in variants[:1]] == [1]
        assert any(v.params.get("count") == 2 for v in variants)
        assert any(v.params.get("group") == ["n1"] for v in variants)
        assert any(v.params.get("heal_after") == 1 for v in variants)

    def test_minimal_values_have_no_weaker_variants(self):
        injection = FaultInjection(
            InjectionMode.CHAOS, ChaosKind.DELAY.value, case_id=0,
            step_index=1, params={"count": 1, "heal_after": 1})
        assert _weaker_variants(injection) == []

    def test_sweep_weakens_until_fixpoint(self):
        injection = FaultInjection(
            InjectionMode.CHAOS, ChaosKind.DELAY.value, case_id=0,
            step_index=1, params={"src": "n1", "dst": "n2", "count": 3})
        session = _Session(budget=100)

        def fails(items, phase="params"):
            session.replays += 1
            return True  # every weakening still fails -> shrink to count=1

        shrunk, converged = _shrink_params([injection], fails, session)
        assert converged
        assert shrunk[0].params["count"] == 1


@pytest.fixture(scope="module")
def failing_kit():
    """toycache with bug_wrong_max: fault seed '1' over the first 4
    cases yields 1 unattributed divergence (the CLI tutorial's repro)."""
    config = ToyCacheConfig(bug_wrong_max=True)
    spec = build_example_spec()
    mapping = build_toycache_mapping()
    graph = canonicalize(check(spec, max_states=10_000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0).truncated(4)
    factory = lambda: make_toycache_cluster(config)
    plan = plan_faults(graph, suite, mapping, "1", factory().node_ids,
                       target="toycache")
    return plan, graph, suite, mapping, factory


class TestShrinkEndToEnd:
    def test_unattributed_failure_proves_fault_independence(self, failing_kit):
        plan, graph, suite, mapping, factory = failing_kit
        result = shrink_plan(plan, graph, suite, mapping, factory,
                             _RUNNER, _FAULTS)
        assert result.fault_independent
        assert result.converged
        assert result.final_count == 0
        assert result.replays <= 3
        assert result.signature == ["inconsistent_state"]
        assert "fault-independent" in result.summary()

    def test_shrink_is_byte_deterministic(self, failing_kit, tmp_path):
        plan, graph, suite, mapping, factory = failing_kit
        logs = []
        for round_no in (1, 2):
            result = shrink_plan(plan, graph, suite, mapping, factory,
                                 _RUNNER, _FAULTS)
            path = tmp_path / f"log{round_no}.jsonl"
            result.write_log(str(path))
            logs.append((result.minimal.to_json(), path.read_bytes()))
        assert logs[0] == logs[1]

    def test_log_records_are_trace_shaped(self, failing_kit):
        plan, graph, suite, mapping, factory = failing_kit
        result = shrink_plan(plan, graph, suite, mapping, factory,
                             _RUNNER, _FAULTS)
        names = [record["name"] for record in result.log]
        assert names[0] == "shrink.start"
        assert names[-1] == "shrink.done"
        assert "shrink.test" in names
        for record in result.log:
            assert set(record) == {"seq", "ts", "kind", "name", "fields"}
            json.dumps(record)  # JSONL-serializable

    def test_non_failing_plan_is_rejected(self, failing_kit):
        plan, graph, suite, mapping, _ = failing_kit
        correct = lambda: make_toycache_cluster(ToyCacheConfig())
        with pytest.raises(ValueError, match="does not fail"):
            shrink_plan(plan, graph, suite, mapping, correct,
                        _RUNNER, _FAULTS)

    def test_tiny_budget_reports_non_convergence(self, failing_kit):
        plan, graph, suite, mapping, factory = failing_kit
        result = shrink_plan(plan, graph, suite, mapping, factory,
                             _RUNNER, _FAULTS, budget=2)
        assert not result.converged
        assert result.replays <= 2
        assert "budget exhausted" in result.summary()

    def test_budget_below_two_is_rejected(self, failing_kit):
        plan, graph, suite, mapping, factory = failing_kit
        with pytest.raises(ValueError, match="budget"):
            shrink_plan(plan, graph, suite, mapping, factory,
                        _RUNNER, _FAULTS, budget=1)
