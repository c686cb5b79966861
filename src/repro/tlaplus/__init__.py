"""TLA+-style specification substrate: DSL, model checker, state graphs.

This package replaces the external TLC model checker the paper relies
on.  Specifications are written in a Python DSL mirroring TLA+'s
Init/Next structure; an explicit-state BFS checker enumerates the
reachable state space, checks invariants and produces the state-space
graph (with DOT round-trip) that the Mocket core consumes.
"""

from .checker import (
    CheckResult,
    ModelChecker,
    TruncatedExplorationWarning,
    check,
)
from .dot import parse_dot, read_dot, to_dot, write_dot
from .errors import (
    ActionError,
    CheckingBudgetExceeded,
    DotParseError,
    InvariantViolation,
    SpecError,
    TlaError,
)
from .graph import Edge, StateGraph
from .spec import (
    ActionDecl,
    ActionKind,
    Specification,
    VarKind,
    VariableDecl,
    from_constant,
    in_flight,
)
from .state import ActionLabel, State
from .trace import diff_states, format_trace, format_violation
from .values import (
    EMPTY_BAG,
    FrozenDict,
    bag_add,
    bag_contains,
    bag_count,
    bag_from_iterable,
    bag_items,
    bag_remove,
    bag_size,
    freeze,
    is_bag,
    thaw,
)

__all__ = [
    "ActionDecl",
    "ActionError",
    "ActionKind",
    "ActionLabel",
    "CheckResult",
    "CheckingBudgetExceeded",
    "DotParseError",
    "EMPTY_BAG",
    "Edge",
    "FrozenDict",
    "InvariantViolation",
    "ModelChecker",
    "SpecError",
    "Specification",
    "State",
    "StateGraph",
    "TlaError",
    "TruncatedExplorationWarning",
    "VarKind",
    "VariableDecl",
    "bag_add",
    "bag_contains",
    "bag_count",
    "bag_from_iterable",
    "bag_items",
    "bag_remove",
    "bag_size",
    "check",
    "diff_states",
    "format_trace",
    "format_violation",
    "freeze",
    "from_constant",
    "in_flight",
    "is_bag",
    "parse_dot",
    "read_dot",
    "thaw",
    "to_dot",
    "write_dot",
]
