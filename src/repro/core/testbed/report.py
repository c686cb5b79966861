"""Divergence reports and test results (Section 4.3.3).

Mocket reports an inconsistency between specification and
implementation in four situations:

* **inconsistent state** — the collected runtime values differ from the
  verified state in the test case,
* **missing action** — the scheduler timed out waiting for a
  notification matching the scheduled action,
* **unexpected action** — a notification that matches no verified
  behaviour (same action with different parameters while the scheduler
  waited, or a leftover notification not enabled in the final verified
  state when the test case ends),
* **stalled** — under fault injection (:mod:`repro.faults`), a
  scheduled action still never arrived (or never finished) after every
  injected fault was healed and one more wait ended with the cluster
  idle; the case is reported instead of hanging.

A report cannot by itself distinguish an implementation bug from a
specification bug — that is the investigator's job (Section 4.3.3), so
reports carry the full evidence: the test case, the step, the offending
variables/notifications.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

from ..testgen.testcase import TestCase

__all__ = [
    "DivergenceKind",
    "VariableDivergence",
    "Divergence",
    "TestCaseResult",
    "SuiteResult",
]


class DivergenceKind(enum.Enum):
    INCONSISTENT_STATE = "inconsistent_state"
    MISSING_ACTION = "missing_action"
    UNEXPECTED_ACTION = "unexpected_action"
    STALLED = "stalled"


class VariableDivergence:
    """One variable whose runtime value differs from the verified state."""

    __slots__ = ("variable", "expected", "actual")

    def __init__(self, variable: str, expected: Any, actual: Any):
        self.variable = variable
        self.expected = expected
        self.actual = actual

    def __repr__(self) -> str:
        return (
            f"VariableDivergence({self.variable}: expected {self.expected!r}, "
            f"got {self.actual!r})"
        )


class Divergence:
    """A reported inconsistency (a potential bug)."""

    def __init__(
        self,
        kind: DivergenceKind,
        step_index: int,
        action: Optional[str] = None,
        variables: Optional[List[VariableDivergence]] = None,
        pending: Optional[List[str]] = None,
        detail: str = "",
    ):
        self.kind = kind
        self.step_index = step_index       # -1 = initial state / end of case
        self.action = action
        self.variables = variables or []
        self.pending = pending or []       # unmatched notification summaries
        self.detail = detail

    @property
    def variable_names(self) -> List[str]:
        return [vd.variable for vd in self.variables]

    def headline(self) -> str:
        """A Table 2 style one-liner for the report."""
        if self.kind is DivergenceKind.INCONSISTENT_STATE:
            names = ", ".join(self.variable_names) or "?"
            return f"Inconsistent state for variable {names}"
        if self.kind is DivergenceKind.MISSING_ACTION:
            return f"Missing action {self.action}"
        if self.kind is DivergenceKind.STALLED:
            return f"Stalled action {self.action}"
        return f"Unexpected action {self.action}"

    def __repr__(self) -> str:
        return f"Divergence({self.headline()} @ step {self.step_index})"


class TestCaseResult:
    """Outcome of running one test case against the system under test."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, case: TestCase, divergence: Optional[Divergence],
                 executed_actions: int, elapsed_seconds: float,
                 phase_seconds: Optional[Dict[str, float]] = None):
        self.case = case
        self.divergence = divergence
        self.executed_actions = executed_actions
        self.elapsed_seconds = elapsed_seconds
        # wall time per phase: deploy / steps / check / teardown
        self.phase_seconds: Dict[str, float] = dict(phase_seconds or {})
        # faults the nemesis injected while this case ran (one summary
        # string per injection, in injection order); empty without
        # fault-injection mode
        self.injected_faults: List[str] = []

    @property
    def passed(self) -> bool:
        return self.divergence is None

    def bug_report(self) -> Dict[str, Any]:
        """The paper's bug report: test case + inconsistency evidence."""
        if self.divergence is None:
            raise ValueError("test case passed; no bug to report")
        return {
            "headline": self.divergence.headline(),
            "kind": self.divergence.kind.value,
            "step_index": self.divergence.step_index,
            "schedule": self.case.describe(),
            "actions_in_case": len(self.case),
            "executed_actions": self.executed_actions,
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "variables": [
                {"variable": vd.variable, "expected": repr(vd.expected),
                 "actual": repr(vd.actual)}
                for vd in self.divergence.variables
            ],
            "pending_notifications": list(self.divergence.pending),
            "detail": self.divergence.detail,
            "injected_faults": list(self.injected_faults),
        }

    def __repr__(self) -> str:
        status = "PASS" if self.passed else f"FAIL({self.divergence.headline()})"
        return f"TestCaseResult(#{self.case.case_id}, {status})"


class SuiteResult:
    """Outcome of running a whole suite."""

    def __init__(self, results: List[TestCaseResult], elapsed_seconds: float):
        self.results = results
        self.elapsed_seconds = elapsed_seconds

    @property
    def failures(self) -> List[TestCaseResult]:
        return [r for r in self.results if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def first_divergence(self) -> Optional[Divergence]:
        for result in self.results:
            if not result.passed:
                return result.divergence
        return None

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Suite-wide wall time per phase, summed across cases."""
        totals: Dict[str, float] = {}
        for result in self.results:
            for phase, seconds in result.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return dict(sorted(totals.items()))

    def divergence_counts(self) -> Dict[str, int]:
        """``{DivergenceKind value: count}`` over the failing cases."""
        counts: Dict[str, int] = {kind.value: 0 for kind in DivergenceKind}
        for result in self.failures:
            counts[result.divergence.kind.value] += 1
        return counts

    def bug_report(self) -> Dict[str, Any]:
        """Suite-level JSON report with timing, so benchmark scripts can
        read wall-clock and per-phase cost instead of re-measuring."""
        return {
            "cases": len(self.results),
            "divergent": len(self.failures),
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": self.phase_seconds,
            "divergence_counts": self.divergence_counts(),
            "case_elapsed_seconds": [r.elapsed_seconds for r in self.results],
            "failures": [r.bug_report() for r in self.failures],
        }

    def summary(self) -> str:
        return (
            f"{len(self.results)} cases, {len(self.failures)} divergent, "
            f"{self.elapsed_seconds:.2f}s"
        )

    def __repr__(self) -> str:
        return f"SuiteResult({self.summary()})"
