"""Virtual time for the deterministic simulation harness.

A :class:`VirtualClock` is a number, not a thread: ``now()`` reads it,
``advance()`` moves it forward, and ``sleep(dt)`` *is* ``advance(dt)``
— a virtual sleep costs zero wall time, which is how a soak run
compresses hours of simulated time into seconds of CPU.  Time only
moves when the :class:`~repro.runtime.sim.scheduler.SimScheduler`
dispatches the next event, so two runs that dispatch the same events
read the same timestamps, bit for bit.

This module must never import ``time`` or read the wall clock in any
form; ``tests/soak/test_no_wallclock_guard.py`` enforces that for the
whole simulated path.
"""

from __future__ import annotations

__all__ = ["Clock", "VirtualClock"]


class Clock:
    """Minimal clock interface: a monotonic ``now`` and a ``sleep``.

    ``now()`` returns seconds on a monotonic axis whose origin is
    unspecified (only differences are meaningful).  ``sleep(dt)`` lets
    ``dt`` seconds *of this clock's time* pass.
    """

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, dt: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class VirtualClock(Clock):
    """Simulated monotonic time, starting at 0.0."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` simulated seconds."""
        if dt < 0:
            raise ValueError(f"cannot advance a monotonic clock by {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to the absolute instant ``t``."""
        if t < self._now:
            raise ValueError(
                f"cannot rewind a monotonic clock ({t} < {self._now})")
        self._now = float(t)
        return self._now

    def sleep(self, dt: float) -> None:
        """A virtual sleep: advances simulated time, costs no wall time."""
        if dt > 0:
            self.advance(dt)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
