"""Generated cases are edge paths over the shared graph, and cross a
process boundary as their steps, never with that graph.

The parallel executor pickles every ``TestCaseResult`` (which holds its
case) back to the master; a case that dragged its ``StateGraph`` along
would ship the whole verified state space once per result.  In-process,
``steps`` is a view over the edge path: every ``TestStep`` is built on
access and dropped after, so a suite is its paths and nothing more.
"""

import pickle
import tracemalloc

from repro.core import generate_test_cases
from repro.core.testgen.testcase import TestCase
from repro.systems.catalog import get_model
from repro.tlaplus import ActionLabel, State, StateGraph, check


def test_pickled_case_is_its_steps_and_linear_in_its_length():
    graph = check(get_model("xraft")()).graph
    cases = sorted(generate_test_cases(graph, por=True, seed=0), key=len)
    short, long = cases[0], cases[-1]
    assert len(long) >= 4 * len(short)
    graph_bytes = len(pickle.dumps(graph))
    per_step = []
    for case in (short, long):
        payload = pickle.dumps(case)     # the first touch of its steps
        assert b"StateGraph" not in payload
        assert len(payload) < graph_bytes / 20
        per_step.append(len(payload) / (len(case) + 1))
        restored = pickle.loads(payload)
        assert restored.steps == case.steps
        assert [(s.src_id, s.dst_id) for s in restored.steps] == \
            [(s.src_id, s.dst_id) for s in case.steps]
        assert (restored.case_id, restored.initial_id, restored.final_id,
                restored.initial_state) == \
            (case.case_id, case.initial_id, case.final_id,
             case.initial_state)
    # O(case length): the per-step cost of a long case is no larger than
    # that of a short one (states shared along a path are pickled once)
    assert per_step[1] <= per_step[0] * 1.5


class _CountingGraph(StateGraph):
    """Counts ``state_of`` calls: one per ``TestStep`` built."""

    def __init__(self, name):
        super().__init__(name)
        self.lookups = 0

    def state_of(self, node_id):
        self.lookups += 1
        return super().state_of(node_id)


def _chain_case(length=4):
    graph = _CountingGraph("chain")
    for node in range(length + 1):
        graph.add_state(State({"n": node}), initial=node == 0)
    path = [graph.add_edge(node, node + 1, ActionLabel("Step"))
            for node in range(length)]
    case = TestCase.from_edges(0, graph, path)
    graph.lookups = 0
    return graph, case


class TestStepsAreAView:
    def test_len_and_ids_build_no_step(self):
        graph, case = _chain_case()
        assert (len(case.steps), len(case), case.final_id) == (4, 4, 4)
        assert case.node_ids() == [0, 1, 2, 3, 4]
        assert graph.lookups == 0

    def test_index_slice_and_iteration_build_steps_on_demand(self):
        graph, case = _chain_case()
        step = case.steps[2]
        assert (step.src_id, step.dst_id, graph.lookups) == (2, 3, 1)
        assert case.steps[-1].dst_id == 4
        assert case.steps[2] is not step       # built again, never kept
        graph.lookups = 0
        head = case.steps[:2]
        assert len(head) == 2 and graph.lookups == 0
        assert [s.dst_id for s in head] == [1, 2] and graph.lookups == 2
        graph.lookups = 0
        for _ in range(2):                     # no cache between passes
            assert [s.expected_state.n for s in case.steps] == [1, 2, 3, 4]
        assert graph.lookups == 8
        assert not isinstance(case.steps, list)

    def test_steps_compare_as_a_sequence(self):
        _graph, case = _chain_case()
        assert case.steps == list(case.steps)
        assert case.steps == tuple(case.steps)
        assert list(case.steps) == case.steps
        assert case.steps != list(case.steps)[:3]

    def test_pickling_leaves_the_source_case_alone(self):
        graph, case = _chain_case()
        view = case.steps
        restored = pickle.loads(pickle.dumps(case))
        assert case.steps is view and view.graph is graph
        assert isinstance(restored.steps, list) and restored.steps == view
        assert restored.final_id == case.final_id == 4

    def test_iterating_a_pathec_suite_retains_nothing(self):
        graph = check(get_model("xraft")()).graph
        suite = generate_test_cases(graph, por=False)
        assert suite.total_actions() == 459535
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            steps = sum(1 for case in suite for _step in case.steps)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert steps == 459535
        assert retained < 1 << 20
