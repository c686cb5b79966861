"""Schedule mutators: every emitted mutation is legal, the
strengthen/weaken pair round-trips, and the stream is deterministic."""

import random

import pytest

from repro.core import generate_test_cases
from repro.engine import canonicalize
from repro.faults import FaultInjection, InjectionMode, plan_faults
from repro.faults.legality import plan_violations
from repro.faults.kinds import stronger_variants, weaker_variants
from repro.fuzz import GraphIndex, MUTATORS, Mutator
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.systems.pyxraft import XraftConfig, build_xraft_mapping
from repro.tlaplus import check

NODE_IDS = ["n1", "n2", "n3"]


@pytest.fixture(scope="module")
def kit():
    """A raft kit whose graph has verified fault edges to splice."""
    spec = build_raft_spec(RaftSpecOptions(
        servers=tuple(NODE_IDS), max_term=1, max_client_requests=0,
        enable_restart=True, max_restarts=1,
        enable_drop=True, max_drops=1,
        enable_duplicate=True, max_duplicates=1,
        candidates=("n1",), name="mutator-guard",
    ))
    mapping = build_xraft_mapping(spec, XraftConfig())
    graph = canonicalize(check(spec, max_states=50_000,
                               truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0, max_cases=6)
    return mapping, graph, suite


def make_mutator(kit, **kwargs):
    mapping, graph, suite = kit
    index = GraphIndex(graph)
    return Mutator(graph, index, suite, mapping, NODE_IDS, **kwargs), suite


class TestMutationLegality:
    def test_long_mutation_chains_stay_legal(self, kit):
        mapping, graph, suite = kit
        mutator, suite = make_mutator(kit, chaos=True, max_faults=2)
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS,
                           chaos=True, max_faults_per_case=2)
        rng = random.Random("chain")
        ops_seen = set()
        for _ in range(40):
            op, candidate = mutator.mutate(plan, rng, set(), set())
            if candidate is None:
                continue
            ops_seen.add(op)
            assert plan_violations(candidate, suite, graph=graph,
                                   node_ids=NODE_IDS,
                                   max_faults_per_case=2) == [], op
            plan = candidate
        assert len(ops_seen) >= 3, f"mutation chain too monotone: {ops_seen}"

    def test_k1_budget_survives_mutation(self, kit):
        mapping, graph, suite = kit
        mutator, suite = make_mutator(kit, chaos=False, max_faults=1)
        plan = plan_faults(graph, suite, mapping, "2", NODE_IDS)
        rng = random.Random("k1")
        for _ in range(25):
            _op, candidate = mutator.mutate(plan, rng, set(), set())
            if candidate is None:
                continue
            assert plan_violations(candidate, suite, graph=graph,
                                   node_ids=NODE_IDS,
                                   max_faults_per_case=1) == []
            plan = candidate

    def test_mutation_stream_is_deterministic(self, kit):
        mapping, graph, suite = kit
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)

        def stream():
            mutator, _ = make_mutator(kit)
            rng = random.Random("det")
            out = []
            current = plan
            for _ in range(10):
                op, candidate = mutator.mutate(current, rng, set(), set())
                out.append((op, candidate.to_json()
                            if candidate is not None else None))
                if candidate is not None:
                    current = candidate
            return out

        assert stream() == stream()

    def test_splice_modeled_targets_real_fault_edges(self, kit):
        mapping, graph, suite = kit
        mutator, suite = make_mutator(kit)
        plan = plan_faults(graph, suite, mapping, "1",
                           NODE_IDS).subset([])
        rng = random.Random("splice")
        spliced = None
        for _ in range(30):
            candidate = mutator._splice_modeled(plan, rng, set(), set())
            if candidate is not None:
                spliced = candidate
                break
        assert spliced is not None
        injection = spliced.injections[-1]
        assert injection.mode is InjectionMode.MODELED
        assert injection.edge.label.name in mutator.fault_names
        assert plan_violations(spliced, suite, graph=graph,
                               node_ids=NODE_IDS) == []

    def test_extend_tail_prefers_uncovered_edges(self, kit):
        mapping, graph, suite = kit
        mutator, suite = make_mutator(kit)
        index = mutator.index
        plan = plan_faults(graph, suite, mapping, "1", NODE_IDS)
        modeled = next(i for i in plan.injections
                       if i.mode is InjectionMode.MODELED)
        end = modeled.tail[-1].dst if modeled.tail else modeled.edge.dst
        pool = [e for e in graph.out_edges(end)
                if e.label.name not in mutator.fault_names]
        if len(pool) < 2:
            pytest.skip("needs a branching tail end under this seed")
        uncovered_target = pool[-1]
        covered = {index.edge_fp(e) for e in pool
                   if e is not uncovered_target}
        base = plan.subset([modeled])
        grown = mutator._extend_tail(base, random.Random("tail"), covered)
        assert grown is not None
        new_edge = grown.injections[0].tail[-1]
        assert (new_edge.src, new_edge.dst) == (uncovered_target.src,
                                                uncovered_target.dst)


class TestStrengthenWeakenRoundTrip:
    def injection(self, **params):
        return FaultInjection(InjectionMode.CHAOS, "delay", 0, 1,
                              params=params)

    def test_count_round_trips(self):
        base = self.injection(src="n1", dst="n2", count=2)
        stronger = [v for v in stronger_variants(base, NODE_IDS)
                    if v.params.get("count") == 3]
        assert stronger
        back = [v for v in weaker_variants(stronger[0])
                if v.params.get("count") == 2]
        assert back and back[0].params == base.params

    def test_heal_after_round_trips(self):
        base = FaultInjection(InjectionMode.CHAOS, "link_cut", 0, 1,
                              params={"src": "n1", "dst": "n2",
                                      "heal_after": 1})
        stronger = [v for v in stronger_variants(base, NODE_IDS)
                    if v.params.get("heal_after") == 2]
        assert stronger
        back = [v for v in weaker_variants(stronger[0])
                if v.params.get("heal_after") == 1]
        assert back and back[0].params == base.params

    def test_group_growth_leaves_one_node_outside(self):
        base = FaultInjection(InjectionMode.CHAOS, "partial_partition",
                              0, 1, params={"group": ["n1"]})
        grown = stronger_variants(base, NODE_IDS)
        assert grown
        for variant in grown:
            assert len(variant.params["group"]) < len(NODE_IDS)
        # a full-cluster group must never be produced
        full = FaultInjection(InjectionMode.CHAOS, "partial_partition",
                              0, 1, params={"group": ["n1", "n2"]})
        assert stronger_variants(full, NODE_IDS) == []

    def test_strengthening_is_bounded(self):
        base = self.injection(src="n1", dst="n2", count=4)
        assert not any(v.params.get("count", 0) > 4
                       for v in stronger_variants(base, NODE_IDS))


class TestWeights:
    def test_coverage_seeking_ops_carry_heavier_dice(self):
        weights = dict(MUTATORS)
        assert weights["splice_modeled"] > weights["drop"]
        assert weights["extend_tail"] > weights["weaken"]
