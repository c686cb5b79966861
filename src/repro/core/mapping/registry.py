"""The spec↔implementation mapping tables (Section 4.1).

A :class:`SpecMapping` records, for one (specification, system) pair:

* which implementation shadow variable realizes each TLA+ variable,
  with an optional value translator and an optional custom comparator
  (e.g. Xraft realizes the ``votesGranted`` *set* as an *integer*, so
  the comparison is ``len(spec_value) == impl_value``),
* how each TLA+ action is made to happen: spontaneously (wait for its
  instrumented notification), by invoking a user-request script, or by
  injecting a fault (crash / restart / drop / duplicate),
* the constant translation table (``Leader`` ↔ ``Role.LEADER`` ...),
* the message-checking mode.

``validate()`` catches the paper's "developer errors" early: unmapped
state variables, unmapped actions, unknown names.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from ...tlaplus.spec import ActionKind, Specification, VarKind
from ...tlaplus.values import SCALAR_TYPES, FrozenDict, freeze
from .kinds import FaultKind, MessageCheckMode, TriggerKind

__all__ = [
    "MappingError",
    "MappingProblem",
    "VariableMapping",
    "ActionMapping",
    "EventBinding",
    "SpecMapping",
    "UNMAPPED_VARIABLE",
    "FORBIDDEN_MAPPING",
    "UNMAPPED_ACTION",
    "TRIGGER_MISMATCH",
]

# Problem codes shared with the static linter (``repro.analysis``): the
# runtime validator and ``mocket lint`` report the same defects under the
# same stable codes (see docs/ANALYSIS.md).
UNMAPPED_VARIABLE = "MCK101"
FORBIDDEN_MAPPING = "MCK102"
UNMAPPED_ACTION = "MCK103"
TRIGGER_MISMATCH = "MCK104"


class MappingProblem(NamedTuple):
    """One defect found while checking a mapping against its spec."""

    code: str
    message: str


class MappingError(Exception):
    """The mapping is incomplete or references unknown spec elements.

    ``problems`` carries every defect found (not just the first one) as
    :class:`MappingProblem` tuples when the error comes from
    :meth:`SpecMapping.validate`; it is empty for point errors such as
    mapping an unknown name.
    """

    def __init__(self, message: str,
                 problems: Optional[Sequence[MappingProblem]] = None):
        super().__init__(message)
        self.problems: List[MappingProblem] = list(problems or [])


class VariableMapping:
    """How one state-related TLA+ variable maps to the implementation.

    ``derive`` computes the runtime value from the live cluster instead
    of the shadow store — for properties of the *deployment* rather than
    of node memory (e.g. ZAB's ``online``, which must reflect whether
    the process is up even though a dead process cannot report it).
    """

    __slots__ = ("spec_name", "impl_name", "to_spec", "compare", "skipped", "derive")

    def __init__(self, spec_name: str, impl_name: Optional[str],
                 to_spec: Optional[Callable[[Any], Any]] = None,
                 compare: Optional[Callable[[Any, Any], bool]] = None,
                 skipped: bool = False,
                 derive: Optional[Callable[[Any, str], Any]] = None):
        self.spec_name = spec_name
        self.impl_name = impl_name or spec_name
        self.to_spec = to_spec
        self.compare = compare
        self.skipped = skipped
        self.derive = derive

    def __repr__(self) -> str:
        if self.skipped:
            return f"VariableMapping({self.spec_name!r}, skipped)"
        return f"VariableMapping({self.spec_name!r} -> {self.impl_name!r})"


class ActionMapping:
    """How one TLA+ action is driven during controlled testing."""

    __slots__ = ("spec_name", "trigger", "fault_kind", "node_param", "run",
                 "duplicate", "receive_action")

    def __init__(self, spec_name: str, trigger: TriggerKind,
                 fault_kind: Optional[FaultKind] = None,
                 node_param: Optional[str] = None,
                 run: Optional[Callable] = None,
                 duplicate: Optional[Callable] = None,
                 receive_action: Optional[str] = None):
        self.spec_name = spec_name
        self.trigger = trigger
        self.fault_kind = fault_kind
        self.node_param = node_param          # which param names the node (crash/restart)
        self.run = run                        # user-request script: run(cluster, params, occurrence)
        self.duplicate = duplicate            # duplicate-fault script: duplicate(cluster, msg)
        self.receive_action = receive_action  # receive action a drop fault overrides

    def __repr__(self) -> str:
        return f"ActionMapping({self.spec_name!r}, {self.trigger.value})"


class EventBinding:
    """How one logged event name resolves to a spec action.

    Trace conformance (:mod:`repro.conform`) validates externally
    captured logs against the verified state graph; the binding table
    is the log-side twin of the action table: it says which spec action
    a logged event *witnesses*, and optionally how to translate the
    event's raw fields into that action's parameter binding.
    """

    __slots__ = ("event_name", "action", "params")

    def __init__(self, event_name: str, action: str,
                 params: Optional[Callable[[Mapping[str, Any]],
                                           Mapping[str, Any]]] = None):
        self.event_name = event_name   # the name as it appears in the log
        self.action = action           # the spec action it witnesses
        self.params = params           # fields -> spec params (None: identity)

    def __repr__(self) -> str:
        return f"EventBinding({self.event_name!r} -> {self.action!r})"


class SpecMapping:
    """The full mapping between a specification and a system under test."""

    def __init__(self, spec: Specification,
                 message_check: MessageCheckMode = MessageCheckMode.STRICT):
        self.spec = spec
        self.message_check = message_check
        self.variables: Dict[str, VariableMapping] = {}
        self.actions: Dict[str, ActionMapping] = {}
        self.events: Dict[str, EventBinding] = {}
        self._const_to_impl: Dict[Any, Any] = {}
        self._impl_to_const: Dict[Any, Any] = {}

    # -- variables --------------------------------------------------------------
    def map_variable(self, spec_name: str, impl_name: Optional[str] = None,
                     to_spec: Optional[Callable[[Any], Any]] = None,
                     compare: Optional[Callable[[Any, Any], bool]] = None,
                     derive: Optional[Callable[[Any, str], Any]] = None) -> "SpecMapping":
        """Map a state-related variable to the shadow field ``impl_name``
        (or to a ``derive(cluster, node_id)`` computation)."""
        self._require_variable(spec_name)
        self.variables[spec_name] = VariableMapping(spec_name, impl_name, to_spec,
                                                    compare, derive=derive)
        return self

    def skip_variable(self, spec_name: str) -> "SpecMapping":
        """Explicitly leave a variable unchecked (documented omission)."""
        self._require_variable(spec_name)
        self.variables[spec_name] = VariableMapping(spec_name, None, skipped=True)
        return self

    # -- constants -----------------------------------------------------------------
    def map_constant(self, spec_value: Any, impl_value: Any) -> "SpecMapping":
        """Record that ``spec_value`` is realized as ``impl_value``."""
        spec_value = freeze(spec_value)
        self._const_to_impl[spec_value] = impl_value
        self._impl_to_const[impl_value] = spec_value
        return self

    def to_spec_value(self, value: Any) -> Any:
        """Translate an implementation value into the spec's domain.

        Applies the constant table recursively through containers, then
        freezes the result.
        """
        translated = self._translate(value)
        return freeze(translated)

    def _translate(self, value: Any) -> Any:
        try:
            if value in self._impl_to_const:
                return self._impl_to_const[value]
        except TypeError:
            pass  # unhashable: recurse below
        if type(value) in SCALAR_TYPES:
            return value
        if isinstance(value, (dict, FrozenDict)) or isinstance(value, Mapping):
            return {self._translate(k): self._translate(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return tuple(self._translate(v) for v in value)
        if isinstance(value, (set, frozenset)):
            return frozenset(self._translate(v) for v in value)
        return value

    # -- actions -----------------------------------------------------------------------
    def map_action(self, spec_name: str) -> "SpecMapping":
        """Map a spontaneous action (single-node or message-related)."""
        self._require_action(spec_name)
        self.actions[spec_name] = ActionMapping(spec_name, TriggerKind.SPONTANEOUS)
        return self

    def map_user_request(self, spec_name: str,
                         run: Callable[..., Any]) -> "SpecMapping":
        """Map a user request to its client script.

        ``run(cluster, params, occurrence)`` launches the request;
        ``occurrence`` is 1 for the first scheduled execution, 2 for the
        second, ... (the paper writes ``(1, 1)`` then ``(2, 2)``).
        """
        self._require_action(spec_name)
        self.actions[spec_name] = ActionMapping(
            spec_name, TriggerKind.USER_REQUEST, run=run
        )
        return self

    def map_crash(self, spec_name: str, node_param: str = "i") -> "SpecMapping":
        self._require_action(spec_name)
        self.actions[spec_name] = ActionMapping(
            spec_name, TriggerKind.FAULT, fault_kind=FaultKind.CRASH,
            node_param=node_param,
        )
        return self

    def map_restart(self, spec_name: str, node_param: str = "i") -> "SpecMapping":
        self._require_action(spec_name)
        self.actions[spec_name] = ActionMapping(
            spec_name, TriggerKind.FAULT, fault_kind=FaultKind.RESTART,
            node_param=node_param,
        )
        return self

    def map_drop(self, spec_name: str, receive_action: Optional[str] = None) -> "SpecMapping":
        """Map a message-drop fault: the matching receive is overridden
        to skip its handler body (the paper's switch mechanism)."""
        self._require_action(spec_name)
        self.actions[spec_name] = ActionMapping(
            spec_name, TriggerKind.FAULT, fault_kind=FaultKind.DROP_MESSAGE,
            receive_action=receive_action,
        )
        return self

    def map_duplicate(self, spec_name: str,
                      duplicate: Callable[..., Any]) -> "SpecMapping":
        """Map a message-duplicate fault.

        ``duplicate(cluster, msg)`` re-injects the (spec-domain) message
        into the destination node, so the duplicate copy flows through
        the normal receive path.
        """
        self._require_action(spec_name)
        self.actions[spec_name] = ActionMapping(
            spec_name, TriggerKind.FAULT, fault_kind=FaultKind.DUPLICATE_MESSAGE,
            duplicate=duplicate,
        )
        return self

    # -- event bindings (trace conformance) ----------------------------------------------
    def bind_event(self, event_name: str, action: Optional[str] = None,
                   params: Optional[Callable[[Mapping[str, Any]],
                                             Mapping[str, Any]]] = None) -> "SpecMapping":
        """Bind a logged event name to the spec action it witnesses.

        ``action`` defaults to ``event_name`` (the native ``repro.obs``
        format logs spec action names directly); ``params(fields)``
        optionally translates the event's raw fields into the action's
        parameter binding for foreign log formats.
        """
        action = action or event_name
        self._require_action(action)
        self.events[event_name] = EventBinding(event_name, action, params)
        return self

    def bind_default_events(self) -> "SpecMapping":
        """Identity-bind every spec action not yet bound to an event.

        This is the native-format default: the testbed's ``runner.step``
        records carry the spec action name, so every action is
        observable under its own name.  Explicit :meth:`bind_event`
        calls made beforehand are preserved.
        """
        for name in self.spec.actions:
            if name not in self.events:
                self.events[name] = EventBinding(name, name)
        return self

    def bound_actions(self) -> set:
        """Spec actions witnessed by at least one event binding."""
        return {binding.action for binding in self.events.values()}

    # -- validation ----------------------------------------------------------------------
    def problems(self) -> List[MappingProblem]:
        """Every mapping defect, as ``(code, message)`` tuples.

        This is the single source of truth shared by the runtime
        :meth:`validate` gate and the static linter's MCK101-MCK104
        conformance rules.
        """
        problems: List[MappingProblem] = []
        for name, decl in self.spec.variables.items():
            if decl.kind in (VarKind.COUNTER, VarKind.AUXILIARY):
                if name in self.variables and not self.variables[name].skipped:
                    problems.append(MappingProblem(
                        FORBIDDEN_MAPPING,
                        f"variable {name!r} is a {decl.kind.value} and must "
                        f"not be mapped"))
                continue
            if decl.kind is VarKind.MESSAGE:
                continue  # message variables live in the testbed's message sets
            if name not in self.variables:
                problems.append(MappingProblem(
                    UNMAPPED_VARIABLE,
                    f"state variable {name!r} is not mapped (or skipped)"))
        for name, decl in self.spec.actions.items():
            mapping = self.actions.get(name)
            if mapping is None:
                problems.append(MappingProblem(
                    UNMAPPED_ACTION, f"action {name!r} is not mapped"))
                continue
            if decl.kind is ActionKind.FAULT and mapping.trigger is not TriggerKind.FAULT:
                problems.append(MappingProblem(
                    TRIGGER_MISMATCH,
                    f"action {name!r} is a fault but mapped as "
                    f"{mapping.trigger.value}"))
            if decl.kind is ActionKind.USER_REQUEST and \
                    mapping.trigger is not TriggerKind.USER_REQUEST:
                problems.append(MappingProblem(
                    TRIGGER_MISMATCH,
                    f"action {name!r} is a user request but mapped as "
                    f"{mapping.trigger.value}"))
        return problems

    def validate(self) -> None:
        """Check the mapping covers the spec (catching developer errors).

        Collects *every* problem and raises a single :class:`MappingError`
        whose ``problems`` attribute lists them all.
        """
        problems = self.problems()
        if problems:
            raise MappingError("; ".join(p.message for p in problems),
                               problems=problems)

    # -- queries --------------------------------------------------------------------------
    def checked_variables(self):
        """State-related variables the state checker compares."""
        return [
            (name, self.variables[name])
            for name, decl in self.spec.variables.items()
            if decl.kind is VarKind.STATE
            and name in self.variables
            and not self.variables[name].skipped
        ]

    def message_variables(self):
        return self.spec.variables_of_kind(VarKind.MESSAGE)

    def action_mapping(self, spec_name: str) -> ActionMapping:
        mapping = self.actions.get(spec_name)
        if mapping is None:
            raise MappingError(f"action {spec_name!r} is not mapped")
        return mapping

    def _require_variable(self, name: str) -> None:
        if name not in self.spec.variables:
            raise MappingError(f"unknown spec variable {name!r}")

    def _require_action(self, name: str) -> None:
        if name not in self.spec.actions:
            raise MappingError(f"unknown spec action {name!r}")

    def mapping_loc(self) -> int:
        """Rough 'mapping LOC' figure for the Table 1 bench: one line per
        mapped variable/constant plus the per-action hook lines."""
        return (
            len(self.variables)
            + len(self._const_to_impl)
            + sum(2 for _ in self.actions)
        )

    def __repr__(self) -> str:
        return (
            f"SpecMapping({self.spec.name!r}: {len(self.variables)} vars, "
            f"{len(self.actions)} actions)"
        )
