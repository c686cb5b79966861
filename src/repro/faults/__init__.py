"""``repro.faults`` — the fault-injection nemesis layer.

Turns the controlled-testing testbed from a replayer into an
adversarial harness: seeded :class:`FaultPlan` generation from the
verified state graph (:func:`plan_faults` / :func:`apply_plan`), a
runtime :class:`Nemesis` applying crash / restart / partition / reorder
faults, a :class:`FaultRunner` with bounded retry and convergence-mode
checking, and :func:`triage` to attribute the resulting divergences.
Failing plans shrink to a minimal repro with :func:`shrink_plan`
(delta debugging + parameter shrinking, fully deterministic), and
arbitrary plans — including fuzzer-mutated ones — are checkable against
the planner's k-budget rules with :func:`plan_violations`.
See docs/FAULTS.md.
"""

from .kinds import ChaosKind, InjectionMode
from .legality import plan_is_legal, plan_violations
from .nemesis import Nemesis
from .plan import EdgeRef, FaultInjection, FaultPlan, PLAN_FORMAT
from .planner import apply_plan, plan_faults
from .runner import FaultConfig, FaultRunner
from .scenarios import (
    ChaosScenario,
    all_chaos_scenarios,
    minizk_crash_restart,
    pyxraft_crash_blackout,
    pyxraft_modeled_message_faults,
    pyxraft_partition_transparent,
    raftkv_bounce_leader,
)
from .shrink import ShrinkResult, shrink_plan
from .triage import divergence_id, render_triage, triage

__all__ = [
    "ChaosKind",
    "InjectionMode",
    "PLAN_FORMAT",
    "EdgeRef",
    "FaultInjection",
    "FaultPlan",
    "plan_faults",
    "apply_plan",
    "plan_violations",
    "plan_is_legal",
    "Nemesis",
    "FaultConfig",
    "FaultRunner",
    "triage",
    "render_triage",
    "divergence_id",
    "ShrinkResult",
    "shrink_plan",
    "ChaosScenario",
    "all_chaos_scenarios",
    "raftkv_bounce_leader",
    "pyxraft_crash_blackout",
    "pyxraft_partition_transparent",
    "pyxraft_modeled_message_faults",
    "minizk_crash_restart",
]
