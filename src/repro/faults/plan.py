"""Serialized fault plans (``mocket-fault-plan/1``).

A :class:`FaultPlan` is the nemesis analogue of a saved test suite: a
seeded, replayable description of *which* faults hit *which* case at
*which* step.  ``mocket faults plan`` writes one, ``mocket faults
replay`` re-applies it bit-identically, and ``mocket test --faults``
builds one in memory from ``--fault-seed``.

The JSON dump is canonical (sorted keys, fixed indentation), so the
same seed over the same graph + suite produces a **byte-identical**
file — the determinism guard in ``tests/faults`` relies on this.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .. import artifact
from ..tlaplus.dot import decode_value, encode_value
from ..tlaplus.state import ActionLabel
from .kinds import RULES, ChaosKind, InjectionMode

__all__ = ["PLAN_FORMAT", "EdgeRef", "FaultInjection", "FaultPlan"]

PLAN_FORMAT = "mocket-fault-plan/1"


class EdgeRef:
    """A graph edge named by endpoints + label, replayable from a plan."""

    __slots__ = ("src", "dst", "label")

    def __init__(self, src: int, dst: int, label: ActionLabel):
        self.src = src
        self.dst = dst
        self.label = label

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "action": self.label.name,
            "params": encode_value(self.label.params),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "EdgeRef":
        label = ActionLabel(payload["action"],
                            dict(decode_value(payload["params"])))
        return cls(payload["src"], payload["dst"], label)

    def __repr__(self) -> str:
        return f"EdgeRef({self.src} --{self.label!r}--> {self.dst})"


class FaultInjection:
    """One planned fault.

    For **modeled** injections ``kind`` is the spec fault's
    :class:`~repro.core.mapping.kinds.FaultKind` value and the injection
    describes a splice: take the base case's first ``step_index`` steps,
    then ``edge`` (the fault transition), then ``tail`` — the result is
    appended to the suite as case ``derived_case_id``.

    For **chaos** injections ``kind`` is a :class:`ChaosKind` value and
    the runner's nemesis applies it to case ``case_id`` just before
    executing step ``step_index`` (an index equal to the case length
    means "after the last step").
    """

    def __init__(self, mode: InjectionMode, kind: str, case_id: int,
                 step_index: int, params: Optional[Dict[str, Any]] = None,
                 derived_case_id: Optional[int] = None,
                 edge: Optional[EdgeRef] = None,
                 tail: Optional[Sequence[EdgeRef]] = None):
        self.mode = mode
        self.kind = kind
        self.case_id = case_id
        self.step_index = step_index
        self.params = dict(params or {})
        self.derived_case_id = derived_case_id
        self.edge = edge
        self.tail: List[EdgeRef] = list(tail or [])

    @property
    def disruptive(self) -> bool:
        return (self.mode is InjectionMode.CHAOS
                and RULES[ChaosKind(self.kind)].disruptive)

    def replace(self, *, params: Optional[Dict[str, Any]] = None,
                tail: Optional[Sequence[EdgeRef]] = None) -> "FaultInjection":
        """A copy with ``params`` and/or ``tail`` substituted — the
        shrinker uses this to try weakened variants of an injection."""
        return FaultInjection(
            self.mode, self.kind, self.case_id, self.step_index,
            params=self.params if params is None else params,
            derived_case_id=self.derived_case_id, edge=self.edge,
            tail=self.tail if tail is None else tail)

    def summary(self) -> str:
        """A one-line, timing-free description for reports and triage."""
        where = f"case #{self.case_id} step {self.step_index}"
        if self.mode is InjectionMode.MODELED:
            return (f"modeled {self.kind} {self.edge.label!r} spliced into "
                    f"{where} as case #{self.derived_case_id}")
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"chaos {self.kind}({detail}) before {where}"

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "mode": self.mode.value,
            "kind": self.kind,
            "case_id": self.case_id,
            "step_index": self.step_index,
            "params": encode_value(self.params),
        }
        if self.mode is InjectionMode.MODELED:
            payload["derived_case_id"] = self.derived_case_id
            payload["edge"] = self.edge.to_jsonable()
            payload["tail"] = [ref.to_jsonable() for ref in self.tail]
        return payload

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "FaultInjection":
        mode = InjectionMode(payload["mode"])
        kind = payload["kind"]
        edge = tail = None
        if mode is InjectionMode.CHAOS:
            kind = ChaosKind(kind).value
        else:
            edge = EdgeRef.from_jsonable(payload["edge"])
            tail = [EdgeRef.from_jsonable(ref) for ref in payload["tail"]]
        return cls(mode, kind, payload["case_id"],
                   payload["step_index"],
                   params=dict(decode_value(payload["params"])),
                   derived_case_id=payload.get("derived_case_id"),
                   edge=edge, tail=tail)

    def __repr__(self) -> str:
        return f"FaultInjection({self.summary()})"


class FaultPlan:
    """A seeded, serializable set of fault injections for one suite."""

    def __init__(self, seed: str, injections: Sequence[FaultInjection],
                 chaos: bool = False, target: str = ""):
        self.seed = str(seed)
        self.chaos = chaos
        self.target = target
        self.injections: List[FaultInjection] = list(injections)

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.injections)

    def modeled(self) -> List[FaultInjection]:
        return [i for i in self.injections if i.mode is InjectionMode.MODELED]

    def chaos_for(self, case_id: int) -> List[FaultInjection]:
        """Chaos injections targeting ``case_id``, in step order."""
        hits = [i for i in self.injections
                if i.mode is InjectionMode.CHAOS and i.case_id == case_id]
        return sorted(hits, key=lambda i: i.step_index)

    def kinds(self) -> List[str]:
        """Distinct fault kinds this plan injects, sorted."""
        return sorted({i.kind for i in self.injections})

    def subset(self, injections: Sequence[FaultInjection]) -> "FaultPlan":
        """A plan carrying the same seed/chaos/target but only the
        given injections — a ddmin candidate is exactly this."""
        return FaultPlan(self.seed, injections, chaos=self.chaos,
                         target=self.target)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for injection in self.injections:
            counts[injection.kind] = counts.get(injection.kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> str:
        by_kind = ", ".join(f"{kind}={count}"
                            for kind, count in self.counts_by_kind().items())
        return (f"{len(self.injections)} injections "
                f"({by_kind or 'none'}; seed {self.seed!r}"
                f"{', chaos' if self.chaos else ''})")

    # -- persistence ----------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format": PLAN_FORMAT,
            "seed": self.seed,
            "chaos": self.chaos,
            "target": self.target,
            "injections": [i.to_jsonable() for i in self.injections],
        }

    def to_json(self) -> str:
        """Canonical dump: same plan ⇒ byte-identical text."""
        return artifact.dumps(self.to_jsonable())

    def save(self, path_or_file) -> None:
        artifact.write(path_or_file, self.to_jsonable())

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "FaultPlan":
        injections = [FaultInjection.from_jsonable(raw)
                      for raw in payload["injections"]]
        return cls(payload["seed"], injections, chaos=payload["chaos"],
                   target=payload.get("target", ""))

    @classmethod
    def load(cls, path_or_file) -> "FaultPlan":
        """Read a plan written by :meth:`save` (fails closed)."""
        return artifact.read(path_or_file, PLAN_FORMAT, cls.from_jsonable)

    def __repr__(self) -> str:
        return f"FaultPlan({self.summary()})"
