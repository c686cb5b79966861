"""The state checker (Section 4.3.2).

After every scheduled action the testbed assembles the system's runtime
state from the per-node shadow stores and the testbed message sets, and
compares it with the verified state in the test case:

* state-related variables — translated through the constant table (and
  the per-variable ``to_spec`` translator); per-node variables are
  assembled into the spec's ``[s \\in Server |-> ...]`` function from
  every node's latest snapshot (crashed nodes keep their last values,
  exactly as the spec keeps a crashed node's variables),
* message-related variables — compared against the testbed message
  sets (``STRICT`` mode) or skipped (``CONSUME`` mode, where message
  contents are validated on consumption instead),
* action counters and auxiliary variables — never checked.

A custom ``compare`` hook supports lossy implementations — e.g. Xraft
realizes the ``votesGranted`` *set* as an *int*, so the mapping
compares cardinality.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...obs import METRICS, TRACER
from ...tlaplus.spec import VarKind
from ...tlaplus.state import State
from ...tlaplus.values import FrozenDict
from ..mapping.kinds import MessageCheckMode
from ..mapping.registry import SpecMapping, VariableMapping
from .messages import MessageSets
from .report import VariableDivergence

__all__ = ["UNREPORTED", "StateChecker"]

UNREPORTED = "<unreported>"


class StateChecker:
    """Compares runtime state against verified states."""

    def __init__(self, mapping: SpecMapping, node_ids: List[str],
                 shadow_cache: Dict[str, Dict[str, Any]],
                 message_sets: MessageSets, cluster: Optional[Any] = None):
        self.mapping = mapping
        self.node_ids = list(node_ids)
        self.shadow_cache = shadow_cache      # shared with the runtime (live view)
        self.message_sets = message_sets
        self.cluster = cluster                # for derive()-mapped variables

    # -- assembly ---------------------------------------------------------------
    def assemble_variable(self, name: str, vm: VariableMapping):
        """The runtime value of one spec variable, in raw impl domain.

        Per-node variables come back as ``{node_id: raw_value}``; global
        variables as the single reporting node's raw value.
        """
        decl = self.mapping.spec.variables[name]
        if vm.derive is not None:
            if decl.per_node:
                return {node_id: vm.derive(self.cluster, node_id)
                        for node_id in self.node_ids}
            return vm.derive(self.cluster, None)
        if decl.per_node:
            return {
                node_id: self.shadow_cache.get(node_id, {}).get(vm.impl_name, UNREPORTED)
                for node_id in self.node_ids
            }
        reporters = [
            shadows[vm.impl_name]
            for shadows in self.shadow_cache.values()
            if vm.impl_name in shadows
        ]
        if not reporters:
            return UNREPORTED
        return reporters[0]

    # -- comparison -----------------------------------------------------------------
    def compare(self, expected: State) -> List[VariableDivergence]:
        """All variable divergences between runtime state and ``expected``."""
        with TRACER.span("statecheck.compare") as compare_span:
            divergences: List[VariableDivergence] = []
            divergences.extend(self._compare_state_variables(expected))
            divergences.extend(self._compare_message_variables(expected))
            if TRACER.enabled:
                METRICS.counter("statecheck.compares").inc()
                if divergences:
                    METRICS.counter("statecheck.mismatches").inc(len(divergences))
                compare_span.add(
                    mismatches=len(divergences),
                    variables=[d.variable for d in divergences],
                )
            return divergences

    def _compare_state_variables(self, expected: State) -> List[VariableDivergence]:
        out: List[VariableDivergence] = []
        for name, vm in self.mapping.checked_variables():
            expected_value = expected[name]
            raw = self.assemble_variable(name, vm)
            decl = self.mapping.spec.variables[name]
            if decl.per_node:
                mismatch = self._per_node_mismatch(expected_value, raw, vm)
            else:
                mismatch = not self._values_match(expected_value, raw, vm)
            if mismatch:
                out.append(VariableDivergence(name, expected_value, raw))
        return out

    def _per_node_mismatch(self, expected_value: FrozenDict,
                           raw: Dict[str, Any], vm: VariableMapping) -> bool:
        for node_id in self.node_ids:
            if node_id not in expected_value:
                # spec tracks a subset of nodes; ignore the others
                continue
            if not self._values_match(expected_value[node_id],
                                      raw.get(node_id, UNREPORTED), vm):
                return True
        return False

    def _values_match(self, expected_value: Any, raw: Any,
                      vm: VariableMapping) -> bool:
        if raw is UNREPORTED or raw == UNREPORTED:
            return False
        if vm.compare is not None:
            return bool(vm.compare(expected_value, raw))
        translated = vm.to_spec(raw) if vm.to_spec is not None else raw
        return self.mapping.to_spec_value(translated) == expected_value

    def _compare_message_variables(self, expected: State) -> List[VariableDivergence]:
        if self.mapping.message_check is not MessageCheckMode.STRICT:
            return []
        out: List[VariableDivergence] = []
        for name in self.mapping.message_variables():
            expected_bag = expected[name]
            actual_bag = self.message_sets.as_bag(name)
            if expected_bag != actual_bag:
                out.append(VariableDivergence(name, expected_bag, actual_bag))
        return out
