"""Vocabulary of the nemesis layer: injection modes, chaos kinds and
the one table of rules every chaos injection obeys.

Two injection modes, with very different soundness stories:

* **modeled** — the fault is an action of the specification (``Restart``,
  ``DropMessage``, ``DuplicateMessage``).  The planner splices the
  fault's *verified* graph edge into a test-case path, so the derived
  case is still a behaviour of the state space and per-step
  expected-state checking stays sound.
* **chaos** — the fault is *not* in the specification.  Transparent
  kinds (partition + heal, mailbox reorder, one-way link cuts, partial
  partitions, per-link delay) are invisible to the spec's semantics —
  the message bag is order-free and a cut/delay only holds delivery
  until heal — so per-step checking is kept.  Disruptive kinds (bounce,
  crash, message corruption) perturb node or network state outside the
  verified space, so the runner switches the case to *convergence
  mode*: the implementation must re-converge to the final verified
  state, or the case is reported.

:data:`RULES` states once what each chaos kind is and where it may go;
the planner, legality checker, shrinker and fuzz mutators all read it
(docs/FAULTS.md § "Chaos kinds").  Draws come from the caller's seeded
stream in a fixed order, so plans and corpora are byte-reproducible.
"""

from __future__ import annotations

import enum
import random
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

__all__ = ["InjectionMode", "ChaosKind", "KindRule", "FAMILIES", "RULES",
           "PARAM_BOUNDS", "step_bounds", "admits", "draw_params",
           "weaker_variants", "stronger_variants"]


class InjectionMode(enum.Enum):
    MODELED = "modeled"
    CHAOS = "chaos"


class ChaosKind(enum.Enum):
    """Spec-unmodeled faults the nemesis can apply at runtime."""

    PARTITION = "partition"   # isolate one node behind a symmetric cut
    REORDER = "reorder"       # permute one node's mailbox backlog
    LINK_CUT = "link_cut"     # asymmetric cut: hold src->dst only
    PARTIAL_PARTITION = "partial_partition"  # cut off an arbitrary subset
    DELAY = "delay"           # hold the next N messages on one link
    BOUNCE = "bounce"         # crash + immediate restart (volatile state lost)
    CRASH = "crash"           # crash, never restarted within the case
    CORRUPT = "corrupt"       # corrupt one in-flight message (checksum drop)


class KindRule(NamedTuple):
    """One chaos kind's row of the rule table."""

    kind: ChaosKind
    # perturbs state outside the verified space: the case switches to
    # convergence mode (which needs one perturbation to converge from),
    # and the window may start after the last step
    disruptive: bool
    # sets the partition groups: a second one would overwrite the first
    partition: bool
    # the parameter keys the nemesis reads, in draw order
    params: Tuple[str, ...]
    # cuts one node off from another: meaningless on a one-node cluster
    two_nodes: bool
    # optional keys drawn after ``params`` (shrink/fuzz dials only)
    extra: Tuple[str, ...] = ()

    @property
    def families(self) -> Tuple[str, ...]:
        """The capped families of this kind: a case holds at most one
        injection of each."""
        return tuple(family for family, member in zip(
            FAMILIES, (self.disruptive, self.partition)) if member)


#: the capped families, in the order ``legality`` reports them
FAMILIES = ("disruptive", "partition-family")


#: one row per kind, in the order the fuzz mutators draw from
RULES: Dict[ChaosKind, KindRule] = {rule.kind: rule for rule in (
    # kind                        disrupt partition params  two_nodes extra
    KindRule(ChaosKind.PARTITION, False, True, ("isolate",), True),
    KindRule(ChaosKind.REORDER, False, False, ("node",), False),
    KindRule(ChaosKind.LINK_CUT, False, False, ("src", "dst"), True,
             ("heal_after",)),
    KindRule(ChaosKind.DELAY, False, False, ("src", "dst", "count"), True),
    KindRule(ChaosKind.PARTIAL_PARTITION, False, True, ("group",), True,
             ("heal_after",)),
    KindRule(ChaosKind.BOUNCE, True, False, ("node",), False),
    KindRule(ChaosKind.CRASH, True, False, ("node",), False),
    KindRule(ChaosKind.CORRUPT, True, False, ("node",), False),
)}

#: ``randrange`` bounds of the integer parameters: a fresh draw lies in
#: ``[low, high)``, weakening stops at ``low`` and strengthening at
#: ``high``; a partition group always leaves one node outside
PARAM_BOUNDS: Dict[str, Tuple[int, int]] = {"count": (1, 4),
                                            "heal_after": (1, 3)}


def step_bounds(kind: ChaosKind, steps: int) -> Tuple[int, int]:
    """``randrange`` bounds of a chaos step index in a ``steps``-step
    case: ``[1, steps-1]`` for transparent kinds, ``[1, steps]`` for
    disruptive ones (an index equal to the case length means "after
    the last step")."""
    return 1, steps + 1 if RULES[kind].disruptive else steps


def admits(kind: ChaosKind, held: Iterable[ChaosKind],
           node_count: int) -> bool:
    """Whether a case already holding chaos kinds ``held`` may take one
    more ``kind`` on a ``node_count``-node cluster."""
    rule = RULES[kind]
    if rule.two_nodes and node_count < 2:
        return False
    taken = {family for other in held for family in RULES[other].families}
    return not taken.intersection(rule.families)


def draw_params(kind: ChaosKind, node_ids: Sequence[str],
                rng: random.Random) -> Dict[str, object]:
    """Seeded parameters for one ``kind`` injection."""
    params: Dict[str, object] = {}
    rule = RULES[kind]
    for key in rule.params + rule.extra:
        if key in ("isolate", "node", "src"):
            params[key] = node_ids[rng.randrange(len(node_ids))]
        elif key == "dst":
            others = [n for n in node_ids if n != params["src"]] \
                or [params["src"]]
            params[key] = others[rng.randrange(len(others))]
        elif key == "group":
            size = rng.randrange(1, len(node_ids)) if len(node_ids) > 1 else 1
            params[key] = sorted(rng.sample(list(node_ids), size))
        else:
            params[key] = rng.randrange(*PARAM_BOUNDS[key])
    return params


def _variants(injection, keys: Sequence[str], step: int,
              node_ids: Sequence[str] = ()) -> List:
    """One variant per key of ``keys`` whose value moves one ``step``
    (-1 weaker, +1 stronger) without passing its bound, in ``keys``
    order: the shrinker and fuzzer pick variants by index."""
    variants = []
    for key in keys:
        value, moved = injection.params.get(key), None
        if key == "group" and isinstance(value, (list, tuple)):
            if step < 0 and len(value) > 1:
                moved = list(value)[:-1]
            elif step > 0:
                outside = sorted(set(node_ids) - set(value))
                if len(outside) > 1:  # keep one node outside
                    moved = sorted(list(value) + [outside[0]])
        elif key in PARAM_BOUNDS and isinstance(value, int):
            low, high = PARAM_BOUNDS[key]
            if (value > low) if step < 0 else (value < high):
                moved = value + step
        if moved is not None:
            variants.append(injection.replace(
                params={**injection.params, key: moved}))
    return variants


def weaker_variants(injection) -> List:
    """Strictly weaker single-step variants of one injection: a shorter
    modeled tail, a smaller delay count, a smaller partition group, an
    earlier heal."""
    shorter = ([injection.replace(tail=injection.tail[:-1])]
               if injection.tail else [])
    return shorter + _variants(injection, ("count", "group", "heal_after"),
                               -1)


def stronger_variants(injection, node_ids: Sequence[str]) -> List:
    """The weakening dimensions inverted, bounded so repeated
    strengthening cannot run away: longer delays, later heals, wider
    partition groups."""
    return _variants(injection, ("count", "heal_after", "group"), +1,
                     node_ids)
