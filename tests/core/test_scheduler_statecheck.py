"""Unit tests for the action scheduler and the state checker."""

import threading
import time

import pytest

from repro.core.mapping import MessageCheckMode, SpecMapping
from repro.core.testbed import MessageSets, StateChecker, UNREPORTED
from repro.core.testbed.scheduler import ActionScheduler, Notification
from repro.runtime.network import Network
from repro.tlaplus import ActionLabel, Specification, State, VarKind
from repro.tlaplus.values import EMPTY_BAG, FrozenDict, bag_add


def _scheduler():
    """A scheduler over an empty network: quiescent unless a counted
    thread is running."""
    return ActionScheduler(Network())


class TestScheduler:
    def test_submit_then_match(self):
        sched = _scheduler()
        sched.submit(Notification("n1", "Act", {"i": "n1"}))
        notif = sched.wait_for_label(ActionLabel("Act", {"i": "n1"}))
        assert notif is not None and notif.node_id == "n1"
        # matched notifications leave the waiting set
        assert sched.pending_snapshot() == []

    def test_no_match_times_out(self):
        """Section 4.3.3's scheduler time-out, decided by quiescence:
        nothing is running, so no match can come."""
        sched = _scheduler()
        sched.submit(Notification("n1", "Act", {"i": "n1"}))
        assert sched.wait_for_label(ActionLabel("Act", {"i": "n2"})) is None
        assert len(sched.pending_snapshot()) == 1

    def test_match_arriving_late(self):
        network = Network()
        sched = ActionScheduler(network)

        def submit_later():
            time.sleep(0.05)
            sched.submit(Notification("n2", "Act", {}))

        # a counted thread keeps the cluster busy until it has submitted
        threading.Thread(target=network.counted(submit_later),
                         daemon=True).start()
        assert sched.wait_for_label(ActionLabel("Act")) is not None

    def test_params_are_translated_to_frozen(self):
        notif = Notification("n1", "Act", {"s": {1, 2}})
        assert notif.params["s"] == frozenset({1, 2})
        assert notif.matches(ActionLabel("Act", {"s": frozenset({2, 1})}))

    def test_enable_sets_directive(self):
        notif = Notification("n1", "Act", {})
        _scheduler().enable(notif, "drop")
        assert notif.enable_event.is_set()
        assert notif.directive == "drop"

    def test_pending_with_name(self):
        sched = _scheduler()
        sched.submit(Notification("n1", "A", {}))
        sched.submit(Notification("n2", "B", {}))
        assert [n.node_id for n in sched.pending_with_name("A")] == ["n1"]

    def test_discard_node(self):
        sched = _scheduler()
        keep = Notification("n1", "A", {})
        drop = Notification("n2", "A", {})
        sched.submit(keep)
        sched.submit(drop)
        sched.discard_node("n2")
        assert sched.pending_snapshot() == [keep]
        assert drop.directive == "abort" and drop.enable_event.is_set()

    def test_abort_all(self):
        sched = _scheduler()
        notifs = [Notification("n1", "A", {}), Notification("n2", "B", {})]
        for n in notifs:
            sched.submit(n)
        sched.abort_all()
        assert sched.pending_snapshot() == []
        assert all(n.directive == "abort" and n.enable_event.is_set() for n in notifs)

    def test_recv_msg_frozen(self):
        notif = Notification("n1", "Recv", {}, recv_msg={"t": "x"}, msg_var="msgs")
        assert notif.recv_msg == FrozenDict({"t": "x"})

    def test_fifo_matching_prefers_earliest(self):
        sched = _scheduler()
        first = Notification("n1", "A", {})
        second = Notification("n2", "A", {})
        sched.submit(first)
        sched.submit(second)
        assert sched.wait_for_label(ActionLabel("A")) is first


def _spec_for_checker():
    spec = Specification("chk", constants={"Server": ("n1", "n2")})
    spec.add_variable("role", per_node=True)
    spec.add_variable("votes", per_node=True)
    spec.add_variable("gmsg")                      # global state variable
    spec.add_variable("msgs", kind=VarKind.MESSAGE)
    spec.add_variable("ctr", kind=VarKind.COUNTER)

    @spec.init
    def init(const):
        return {"role": {"n1": "Follower", "n2": "Follower"}, "gmsg": "Nil",
                "votes": {"n1": frozenset(), "n2": frozenset()},
                "msgs": EMPTY_BAG, "ctr": 0}

    return spec


def _checker(message_check=MessageCheckMode.STRICT, votes_compare=None):
    spec = _spec_for_checker()
    mapping = SpecMapping(spec, message_check=message_check)
    mapping.map_constant("Follower", "F").map_constant("Leader", "L")
    mapping.map_variable("role", "state")
    mapping.map_variable("votes", "votes", compare=votes_compare)
    mapping.map_variable("gmsg", "gmsg")
    shadow = {
        "n1": {"state": "F", "votes": frozenset(), "gmsg": "Nil"},
        "n2": {"state": "F", "votes": frozenset()},
    }
    sets = MessageSets(["msgs"])
    checker = StateChecker(mapping, ["n1", "n2"], shadow, sets)
    return checker, shadow, sets


def _expected(**overrides):
    base = {
        "role": {"n1": "Follower", "n2": "Follower"},
        "votes": {"n1": frozenset(), "n2": frozenset()},
        "gmsg": "Nil",
        "msgs": EMPTY_BAG,
        "ctr": 0,
    }
    base.update(overrides)
    return State(base)


class TestStateChecker:
    def test_matching_state_has_no_divergence(self):
        checker, _, _ = _checker()
        assert checker.compare(_expected()) == []

    def test_constant_translation_applied(self):
        checker, shadow, _ = _checker()
        shadow["n1"]["state"] = "L"
        divs = checker.compare(_expected(role={"n1": "Leader", "n2": "Follower"}))
        assert divs == []

    def test_per_node_mismatch_detected(self):
        checker, shadow, _ = _checker()
        shadow["n2"]["state"] = "L"
        divs = checker.compare(_expected())
        assert [d.variable for d in divs] == ["role"]

    def test_unreported_variable_is_divergence(self):
        checker, shadow, _ = _checker()
        del shadow["n1"]["state"]
        divs = checker.compare(_expected())
        assert [d.variable for d in divs] == ["role"]
        assert UNREPORTED in repr(divs[0].actual)

    def test_global_variable_checked(self):
        checker, shadow, _ = _checker()
        shadow["n1"]["gmsg"] = "other"
        divs = checker.compare(_expected())
        assert [d.variable for d in divs] == ["gmsg"]

    def test_counter_never_checked(self):
        checker, _, _ = _checker()
        assert checker.compare(_expected(ctr=99)) == []

    def test_custom_compare_hook(self):
        # votes is a set in the spec but an int in the implementation
        checker, shadow, _ = _checker(
            votes_compare=lambda spec_value, impl: len(spec_value) == impl
        )
        shadow["n1"]["votes"] = 1
        shadow["n2"]["votes"] = 0
        divs = checker.compare(_expected(votes={"n1": frozenset({"n1"}),
                                                "n2": frozenset()}))
        assert divs == []
        # and a cardinality mismatch is caught
        shadow["n1"]["votes"] = 3
        divs = checker.compare(_expected(votes={"n1": frozenset({"n1"}),
                                                "n2": frozenset()}))
        assert [d.variable for d in divs] == ["votes"]

    def test_strict_message_check(self):
        checker, _, sets = _checker()
        sets.add("msgs", {"t": "x"})
        divs = checker.compare(_expected())
        assert [d.variable for d in divs] == ["msgs"]
        divs = checker.compare(_expected(msgs=bag_add(EMPTY_BAG, {"t": "x"})))
        assert divs == []

    def test_consume_mode_skips_message_check(self):
        checker, _, sets = _checker(message_check=MessageCheckMode.CONSUME)
        sets.add("msgs", {"t": "x"})
        assert checker.compare(_expected()) == []

    def test_spec_subset_of_nodes_ignored(self):
        """If the spec models fewer nodes than the cluster runs, extra
        cluster nodes are ignored for per-node variables."""
        checker, shadow, _ = _checker()
        shadow["n3"] = {"state": "weird"}
        checker.node_ids.append("n3")
        assert checker.compare(_expected()) == []
