"""Unit tests for the virtual clock and the seeded event loop.

The SimScheduler ordering contract (time ascending, FIFO at equal
timestamps, opt-in seeded tie-break) is what every soak replay stands
on, so it is pinned here event by event.
"""

import pytest

from repro.runtime.sim import Clock, SimScheduler, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now() == 1.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_advance_to_rejects_rewind(self):
        clock = VirtualClock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_sleep_is_advance(self):
        clock = VirtualClock()
        clock.sleep(0.25)
        assert clock.now() == 0.25

    def test_sleep_zero_and_negative_are_noops(self):
        clock = VirtualClock()
        clock.sleep(0.0)
        clock.sleep(-1.0)
        assert clock.now() == 0.0

    def test_is_a_clock(self):
        assert isinstance(VirtualClock(), Clock)


class TestSchedulerOrdering:
    def test_time_ascending(self):
        sched = SimScheduler("s")
        order = []
        sched.schedule(0.3, order.append, "c")
        sched.schedule(0.1, order.append, "a")
        sched.schedule(0.2, order.append, "b")
        sched.run()
        assert order == ["a", "b", "c"]
        assert sched.now() == pytest.approx(0.3)

    def test_fifo_at_equal_timestamps(self):
        sched = SimScheduler("s")
        order = []
        for tag in "abcde":
            sched.schedule(1.0, order.append, tag)
        sched.run()
        assert order == list("abcde")

    def test_seeded_tiebreak_is_deterministic(self):
        def run_once(seed):
            sched = SimScheduler(seed)
            order = []
            for tag in "abcdefgh":
                sched.schedule(1.0, order.append, tag, jitter=True)
            sched.run()
            return order

        assert run_once("7") == run_once("7")
        # with 8 jittered events some seed must shuffle away from FIFO
        shuffles = [run_once(str(s)) for s in range(8)]
        assert any(order != list("abcdefgh") for order in shuffles)

    def test_tiebreak_independent_of_hashseed_stream(self):
        # string-seeded Random: two schedulers with the same seed draw
        # identical lane streams in one process (the cross-process
        # guarantee is pinned by tests/soak/test_determinism_guard.py)
        a, b = SimScheduler("x"), SimScheduler("x")
        lanes_a = [a.schedule(0.0, lambda: None, jitter=True).lane
                   for _ in range(10)]
        lanes_b = [b.schedule(0.0, lambda: None, jitter=True).lane
                   for _ in range(10)]
        assert lanes_a == lanes_b

    def test_clock_jumps_to_event_time(self):
        sched = SimScheduler()
        seen = []
        sched.schedule(2.5, lambda: seen.append(sched.now()))
        sched.run_next()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimScheduler().schedule(-0.1, lambda: None)


class TestSchedulerDispatch:
    def test_cancel(self):
        sched = SimScheduler()
        fired = []
        handle = sched.schedule(0.1, fired.append, "x")
        handle.cancel()
        sched.schedule(0.2, fired.append, "y")
        sched.run()
        assert fired == ["y"]
        assert handle.cancelled

    def test_run_until_dispatches_inclusive_and_advances(self):
        sched = SimScheduler()
        fired = []
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(2.0, fired.append, "b")
        sched.schedule(3.0, fired.append, "c")
        assert sched.run_until(2.0) == 2
        assert fired == ["a", "b"]
        assert sched.now() == 2.0
        assert sched.pending == 1

    def test_run_until_advances_clock_on_empty_queue(self):
        sched = SimScheduler()
        sched.run_until(5.0)
        assert sched.now() == 5.0

    def test_run_for(self):
        sched = SimScheduler()
        sched.run_until(1.0)
        fired = []
        sched.schedule(0.5, fired.append, "x")
        sched.run_for(1.0)
        assert fired == ["x"]
        assert sched.now() == 2.0

    def test_events_may_schedule_events(self):
        sched = SimScheduler()
        order = []

        def outer():
            order.append(("outer", sched.now()))
            sched.schedule(0.5, inner)

        def inner():
            order.append(("inner", sched.now()))

        sched.schedule(1.0, outer)
        sched.run()
        assert order == [("outer", 1.0), ("inner", 1.5)]

    def test_call_soon_runs_at_current_instant(self):
        sched = SimScheduler()
        sched.run_until(2.0)
        fired = []
        sched.call_soon(fired.append, "x")
        assert sched.next_time() == 2.0
        sched.run()
        assert fired == ["x"]
        assert sched.now() == 2.0

    def test_dispatched_counter_and_pending(self):
        sched = SimScheduler()
        for _ in range(3):
            sched.schedule(0.1, lambda: None)
        assert sched.pending == 3
        sched.run()
        assert sched.dispatched == 3
        assert sched.pending == 0
        assert sched.next_time() is None

    def test_run_max_events(self):
        sched = SimScheduler()
        for _ in range(5):
            sched.schedule(0.1, lambda: None)
        assert sched.run(max_events=2) == 2
        assert sched.pending == 3
