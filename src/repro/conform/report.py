"""Conformance verdicts: divergence records, near-miss ranking, reports.

A report is deliberately *timing-free*: two monitors fed the same log
against the same spec produce byte-identical text and JSON output,
for any ``PYTHONHASHSEED`` — the same determinism
contract every other subsystem pins with guard tests.  Wall-clock
throughput lives in ``BENCH_conform.json``, not in the verdict.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["NearMiss", "LogDivergence", "ConformanceReport"]

#: JSON envelope version for ``mocket conform --format json``.
ENVELOPE_VERSION = 1


class NearMiss:
    """One ranked explanation of what the spec *would* have allowed.

    ``rank`` 0 candidates share the divergent event's action name but
    disagree on parameters; ``rank`` 1 candidates are other actions
    enabled in a compatible state.  ``state`` is a canonical state id.
    """

    __slots__ = ("rank", "state", "action", "params", "mismatches")

    def __init__(self, rank: int, state: int, action: str,
                 params: Dict[str, Any],
                 mismatches: Optional[List[str]] = None):
        self.rank = rank
        self.state = state
        self.action = action
        self.params = params
        self.mismatches = mismatches or []

    def describe(self) -> str:
        binding = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        head = f"state {self.state}: {self.action}({binding})"
        if self.mismatches:
            return f"{head} — differs on {', '.join(self.mismatches)}"
        return f"{head} — enabled here"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "state": self.state,
            "action": self.action,
            "params": self.params,
            "mismatches": self.mismatches,
        }


class LogDivergence:
    """The first log line at which no spec behaviour remains."""

    __slots__ = ("line", "session", "event", "action", "params", "reason",
                 "near_misses", "frontier")

    def __init__(self, line: int, session: Any, event: str,
                 action: Optional[str], params: Dict[str, Any], reason: str,
                 near_misses: List[NearMiss], frontier: List[int]):
        self.line = line               # 1-based log line number
        self.session = session
        self.event = event             # logged event name
        self.action = action           # bound spec action (None: unbound)
        self.params = params
        self.reason = reason           # "no-transition" | "unbound-event"
        self.near_misses = near_misses
        self.frontier = frontier       # compatible canonical state ids

    def headline(self) -> str:
        shown = self.action or self.event
        at = f" (session {self.session})" if self.session is not None else ""
        return f"line {self.line}{at}: {self.reason} for {shown!r}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "line": self.line,
            "session": self.session,
            "event": self.event,
            "action": self.action,
            "params": self.params,
            "reason": self.reason,
            "frontier": self.frontier,
            "near_misses": [nm.as_dict() for nm in self.near_misses],
        }


class ConformanceReport:
    """The full outcome of one conformance run over one log."""

    def __init__(self, spec_name: str, log: str, adapter: str):
        self.spec_name = spec_name
        self.log = log
        self.adapter = adapter
        self.events = 0                 # observable events consumed
        self.matched = 0                # events that kept the walk alive
        self.skipped_unknown = 0        # unbound events skipped (opt-in)
        self.sessions = 0
        self.diverged_sessions = 0
        self.frontier_peak = 0
        self.spilled = 0                # frontier states dropped by the cap
        self.bounded = False            # True once any spill happened
        self.first_divergence: Optional[LogDivergence] = None

    @property
    def ok(self) -> bool:
        return self.first_divergence is None

    @property
    def verdict(self) -> str:
        return "conforms" if self.ok else "diverged"

    def as_dict(self) -> Dict[str, Any]:
        """The stable v1 JSON envelope (timing-free, fully deterministic)."""
        return {
            "version": ENVELOPE_VERSION,
            "spec": self.spec_name,
            "log": self.log,
            "adapter": self.adapter,
            "verdict": self.verdict,
            "events": self.events,
            "matched": self.matched,
            "skipped_unknown": self.skipped_unknown,
            "sessions": self.sessions,
            "diverged_sessions": self.diverged_sessions,
            "frontier_peak": self.frontier_peak,
            "bounded": self.bounded,
            "spilled": self.spilled,
            "first_divergence": (self.first_divergence.as_dict()
                                 if self.first_divergence else None),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"conformance: {self.verdict} "
            f"({self.events} events, {self.sessions} sessions, "
            f"spec {self.spec_name})",
            f"  matched {self.matched} events; frontier peak "
            f"{self.frontier_peak}"
            + (f"; spilled {self.spilled} states (bounded mode)"
               if self.bounded else ""),
        ]
        if self.skipped_unknown:
            lines.append(f"  skipped {self.skipped_unknown} unbound events")
        div = self.first_divergence
        if div is not None:
            lines.append(f"  first divergence at {div.headline()}")
            lines.append(f"  diverged sessions: {self.diverged_sessions}")
            if div.near_misses:
                lines.append("  nearest spec behaviours:")
                for miss in div.near_misses:
                    lines.append(f"    {miss.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"ConformanceReport({self.verdict}, {self.events} events, "
                f"{self.sessions} sessions)")
