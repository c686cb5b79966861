"""The Figure 1 example spec must reproduce Figure 2's state space exactly."""

import pytest

from repro.specs.example import MAX, NIL, NOT_MAX, build_example_spec
from repro.tlaplus import ActionKind, ActionLabel, VarKind, check


@pytest.fixture(scope="module")
def result():
    return check(build_example_spec(data=(1, 2)))


class TestFigure2:
    def test_thirteen_states(self, result):
        assert result.graph.num_states == 13

    def test_eighteen_edges(self, result):
        assert result.graph.num_edges == 18

    def test_initial_state(self, result):
        init = result.graph.state_of(result.graph.initial_ids[0])
        assert init.msg == NIL
        assert init.stage == "request"
        assert init.cache == frozenset()

    def test_invariant_holds(self, result):
        assert result.ok

    def test_actions_alternate(self, result):
        """Every path alternates Request and Respond (stage controls this)."""
        for node_id, state in result.graph.states():
            for label in result.graph.enabled_labels(node_id):
                if state.stage == "request":
                    assert label.name == "Request"
                else:
                    assert label.name == "Respond"

    def test_max_answer_only_when_msg_is_max(self, result):
        """The Max/NotMax response logic of Figure 1 lines 16-17."""
        for _, state in result.graph.states():
            if state.stage == "request" and state.msg == MAX:
                assert state.cache  # Max can only follow a cached datum
            if state.msg == NOT_MAX and state.stage == "request":
                assert len(state.cache) == 2  # only 1 after 2 produces NotMax here

    def test_figure2_state9_and_10_reached(self, result):
        """Both 'Max' and 'NotMax' full-cache states exist (states 9/10)."""
        dumps = [s.as_dict() for _, s in result.graph.states()]
        assert {"msg": MAX, "stage": "request", "cache": {1, 2}} in dumps
        assert {"msg": NOT_MAX, "stage": "request", "cache": {1, 2}} in dumps

    def test_cycles_exist(self, result):
        """Figure 2 contains cycles (e.g. state 3 -> 5 -> 3)."""
        graph = result.graph

        def reaches(start, goal):
            seen, frontier = {start}, [start]
            while frontier:
                node = frontier.pop()
                if node == goal:
                    return True
                fresh = set(graph.successors(node)) - seen
                seen |= fresh
                frontier.extend(fresh)
            return False

        assert any(reaches(edge.dst, edge.src) for edge in graph.edges())

    def test_duplicate_request_edge_labels(self, result):
        """Request(1) and Request(2) both leave every 'request' state."""
        for node_id, state in result.graph.states():
            if state.stage != "request":
                continue
            labels = set(result.graph.enabled_labels(node_id))
            assert ActionLabel("Request", {"data": 1}) in labels
            assert ActionLabel("Request", {"data": 2}) in labels


class TestSpecShape:
    def test_variable_kinds(self):
        spec = build_example_spec()
        assert spec.variables["stage"].kind is VarKind.AUXILIARY
        assert spec.variables["msg"].kind is VarKind.STATE
        assert spec.variables["cache"].kind is VarKind.STATE

    def test_action_kinds(self):
        spec = build_example_spec()
        assert spec.actions["Request"].kind is ActionKind.USER_REQUEST
        assert spec.actions["Respond"].kind is ActionKind.SINGLE_NODE

    def test_larger_data_scales(self):
        result = check(build_example_spec(data=(1, 2, 3)))
        assert result.ok
        assert result.graph.num_states > 13

    def test_singleton_data(self):
        result = check(build_example_spec(data=(7,)))
        assert result.ok
        # (Nil,{}), (7,{}), (Max,{7}), (7,{7}) — then the cycle closes
        assert result.graph.num_states == 4
