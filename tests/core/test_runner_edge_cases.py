"""Testbed edge cases: the divergence machinery beyond the happy paths.

Uses the toy cache system (small, fast) plus purpose-built specs to
drive the runner into its corner cases: initial-state mismatch, unknown
received messages, drop/duplicate plumbing, classification of timeouts,
and suite bookkeeping.
"""

import pytest

from repro.core import (
    ControlledTester,
    DivergenceKind,
    generate_test_cases,
)
from repro.core.mapping import SpecMapping, mocket_action, traced_field
from repro.core.testgen import label, scenario_case
from repro.runtime import Cluster, Node
from repro.specs import build_example_spec
from repro.systems.toycache import (
    CacheServer,
    ToyCacheConfig,
    build_toycache_mapping,
    make_toycache_cluster,
)
from repro.tlaplus import check


@pytest.fixture(scope="module")
def example_graph():
    return check(build_example_spec()).graph


@pytest.fixture(scope="module")
def example_suite(example_graph):
    return generate_test_cases(example_graph, por=False)


class BadInitServer(CacheServer):
    """Starts with a wrong initial value for ``msg``."""

    def __init__(self, node_id, cluster, config=None):
        super().__init__(node_id, cluster, config)
        self.msg = "Garbage"


class TestInitialStateCheck:
    def test_wrong_initial_state_reported_before_any_action(self, example_graph,
                                                            example_suite):
        cluster_factory = lambda: Cluster(
            ["server"], lambda nid, c: BadInitServer(nid, c, ToyCacheConfig()))
        tester = ControlledTester(build_toycache_mapping(), example_graph,
                                  cluster_factory)
        result = tester.run_case(example_suite[0])
        assert not result.passed
        assert result.divergence.step_index == -1
        assert result.divergence.detail == "initial state mismatch"
        assert result.executed_actions == 0


class TestSuiteBookkeeping:
    def test_stop_on_divergence_halts_early(self, example_graph, example_suite):
        tester = ControlledTester(
            build_toycache_mapping(), example_graph,
            lambda: make_toycache_cluster(ToyCacheConfig(bug_wrong_max=True)))
        result = tester.run_suite(example_suite, stop_on_divergence=True)
        assert len(result.results) < len(example_suite) or len(example_suite) == 1

    def test_max_cases_respected(self, example_graph, example_suite):
        tester = ControlledTester(build_toycache_mapping(), example_graph,
                                  lambda: make_toycache_cluster(ToyCacheConfig()))
        result = tester.run_suite(example_suite, max_cases=2)
        assert len(result.results) == 2

    def test_elapsed_and_counts_recorded(self, example_graph, example_suite):
        tester = ControlledTester(build_toycache_mapping(), example_graph,
                                  lambda: make_toycache_cluster(ToyCacheConfig()))
        result = tester.run_case(example_suite[0])
        assert result.passed
        assert result.executed_actions == len(example_suite[0])
        assert result.elapsed_seconds > 0

    def test_bug_report_requires_divergence(self, example_graph, example_suite):
        tester = ControlledTester(build_toycache_mapping(), example_graph,
                                  lambda: make_toycache_cluster(ToyCacheConfig()))
        result = tester.run_case(example_suite[0])
        with pytest.raises(ValueError):
            result.bug_report()


class TestValidationAtConstruction:
    def test_incomplete_mapping_rejected(self, example_graph):
        mapping = SpecMapping(build_example_spec())
        from repro.core.mapping import MappingError

        with pytest.raises(MappingError):
            ControlledTester(mapping, example_graph,
                             lambda: make_toycache_cluster())


class TestMissingVsUnexpectedClassification:
    """A same-name/different-params notification at a timeout is an
    unexpected action; silence is a missing action."""

    def _spec_and_system(self, wrong_param):
        from repro.tlaplus import Specification

        spec = Specification("cls", constants={})
        spec.add_variable("x")

        @spec.init
        def init(const):
            return {"x": 0}

        @spec.action(params={"v": lambda s, c: [1, 2]})
        def Put(state, const, v):
            if state.x != 0:
                return None
            return {"x": v}

        class PutNode(Node):
            x = traced_field("x")

            def __init__(self, nid, cluster):
                super().__init__(nid, cluster)
                self.x = 0

            @mocket_action("Put", params=lambda self, v: {"v": v})
            def put(self, v):
                self.x = v

        mapping = SpecMapping(spec)
        mapping.map_variable("x")

        def run_put(cluster, params, occ):
            # a buggy client script that writes the wrong value
            cluster.node("s").put(wrong_param if wrong_param else params["v"])

        if wrong_param == "silent":
            mapping.map_user_request("Put", lambda cluster, params, occ: None)
        else:
            mapping.map_user_request("Put", run_put)
        graph, case = scenario_case(spec, [label("Put", v=1)])
        cluster_factory = lambda: Cluster(["s"], lambda nid, c: PutNode(nid, c))
        return ControlledTester(mapping, graph, cluster_factory), case

    def test_different_params_is_unexpected(self):
        tester, case = self._spec_and_system(wrong_param=2)
        result = tester.run_case(case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.UNEXPECTED_ACTION
        assert result.divergence.action == "Put"
        assert "offered" in result.divergence.detail

    def test_silence_is_missing(self):
        tester, case = self._spec_and_system(wrong_param="silent")
        result = tester.run_case(case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.MISSING_ACTION

    def test_correct_params_pass(self):
        tester, case = self._spec_and_system(wrong_param=None)
        assert tester.run_case(case).passed


class TestUnknownReceivedMessage:
    def _kit(self, received_value):
        from repro.core.mapping import MessageCheckMode, mocket_receive
        from repro.tlaplus import EMPTY_BAG, Specification, VarKind, bag_add, in_flight

        spec = Specification("ghost", constants={})
        spec.add_variable("msgs", kind=VarKind.MESSAGE)
        spec.add_variable("got")

        @spec.init
        def init(const):
            return {"msgs": bag_add(EMPTY_BAG, "real"), "got": None}

        @spec.action(params={"m": in_flight("msgs")},
                     msg_param="m", message_var="msgs")
        def Recv(state, const, m):
            from repro.tlaplus import bag_remove

            return {"msgs": bag_remove(state.msgs, m), "got": m}

        class GhostNode(Node):
            got = traced_field("got")

            def __init__(self, nid, cluster):
                super().__init__(nid, cluster)
                self.got = None

            @mocket_receive("Recv", "msgs", msg=lambda self, m: m)
            def recv(self, m):
                self.got = m

        mapping = SpecMapping(spec, message_check=MessageCheckMode.CONSUME)
        mapping.map_variable("got")
        mapping.map_user_request(
            "Recv",
            lambda cluster, params, occ: cluster.node("s").recv(received_value))
        graph, case = scenario_case(spec, [label("Recv", m="real")])
        tester = ControlledTester(
            mapping, graph, lambda: Cluster(["s"], lambda n, c: GhostNode(n, c)))
        return tester, case

    def test_mismatching_message_is_unexpected(self):
        """The node offers a different message than scheduled."""
        tester, case = self._kit("ghost")
        result = tester.run_case(case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.UNEXPECTED_ACTION

    def test_matching_but_never_sent_message_is_inconsistent(self):
        """The spec's initial bag holds a message the testbed never saw
        sent: consuming it is an inconsistency on the message variable."""
        tester, case = self._kit("real")
        result = tester.run_case(case)
        assert not result.passed
        assert result.divergence.kind is DivergenceKind.INCONSISTENT_STATE
        assert "msgs" in result.divergence.variable_names
        assert "never saw sent" in result.divergence.detail
