"""Generated cases are edge paths over the shared graph, and cross a
process boundary as their steps, never with that graph.

The parallel executor pickles every ``TestCaseResult`` (which holds its
case) back to the master; a case that dragged its ``StateGraph`` along
would ship the whole verified state space once per result.
"""

import pickle

from repro.core import generate_test_cases
from repro.systems.catalog import get_model
from repro.tlaplus import check


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
