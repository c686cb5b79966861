"""The target catalog: what each bundled system and model name means.

The paper's unit of work is one system under test = (verified spec,
mapping, driver scripts).  Every such unit this repo ships is one
:class:`Target` row in :data:`TARGETS`; the models they are checked
against (and the bare ones ``mocket check`` also accepts) are
:data:`MODELS`.  ``mocket test|faults|fuzz|conform|bugs|lint|analyze``
all resolve names here — adding a system is adding one row.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Dict, List, Tuple

from ..specs import build_example_spec
from ..specs.raft import build_raftkv_spec, build_xraft_spec
from ..specs.zab import ZabSpecOptions, build_zab_spec
from ..tlaplus import Specification
from . import minizk, pyxraft, raftkv, toycache
from .minizk import scenarios as minizk_scenarios
from .pyxraft import scenarios as pyxraft_scenarios
from .raftkv import scenarios as raftkv_scenarios

__all__ = ["BARE_MODELS", "MODELS", "TARGETS", "Target",
           "UnknownName", "get_model", "get_target", "kit",
           "spec_and_mapping"]

class UnknownName(ValueError):
    """A target, model or bug-flag name the catalog does not hold."""


@dataclass(frozen=True)
class Target:
    """One bundled system under test."""

    name: str
    package: ModuleType  # the instrumented source ``mocket lint`` parses
    model: str           # the :data:`MODELS` entry ``mocket test`` checks it against
    config: type         # its ``bug_*`` constructor parameters are the ``--bug`` flags
    build_mapping: Callable   # (spec, config) -> SpecMapping
    make_cluster: Callable    # (servers, config) -> Cluster
    scenarios: Tuple[Callable, ...] = ()  # Table 2 scenario builders

    def bug_flags(self) -> List[str]:
        return [name for name in inspect.signature(self.config).parameters
                if name.startswith("bug_")]


#: model name -> builder of the specification the CLI verbs check
MODELS: Dict[str, Callable[[], Specification]] = {
    "example": build_example_spec,
    "xraft": lambda: build_xraft_spec(
        max_term=1, max_client_requests=0, candidates=("n1",),
        name="xraft-model"),
    "raftkv": lambda: build_raftkv_spec(
        max_term=1, max_client_requests=0, candidates=("n1",),
        name="raftkv-model"),
    # minizk conforms only when n3 starts the election
    "zab": lambda: build_zab_spec(ZabSpecOptions(
        max_elections=1, max_crashes=0, max_restarts=0, starters=("n3",),
        name="zab-model")),
}

TARGETS: Dict[str, Target] = {target.name: target for target in (
    # the toy cache fixes its own spec and its single node id
    Target("toycache", toycache, "example", toycache.ToyCacheConfig,
           lambda spec, config: toycache.build_toycache_mapping(),
           lambda servers, config: toycache.make_toycache_cluster(config)),
    Target("pyxraft", pyxraft, "xraft", pyxraft.XraftConfig,
           pyxraft.build_xraft_mapping, pyxraft.make_xraft_cluster,
           (pyxraft_scenarios.xraft_bug1, pyxraft_scenarios.xraft_bug2,
            pyxraft_scenarios.xraft_bug3)),
    Target("raftkv", raftkv, "raftkv", raftkv.RaftKvConfig,
           raftkv.build_raftkv_mapping, raftkv.make_raftkv_cluster,
           (raftkv_scenarios.raftkv_bug1, raftkv_scenarios.raftkv_bug2,
            raftkv_scenarios.raft_spec_bug_missing_reply,
            raftkv_scenarios.raft_spec_bug_update_term)),
    Target("minizk", minizk, "zab", minizk.MiniZkConfig,
           minizk.build_minizk_mapping, minizk.make_minizk_cluster,
           (minizk_scenarios.zk_bug_1419, minizk_scenarios.zk_bug_1653)),
)}


#: models that are not also a system's name: with :data:`TARGETS`, the
#: names ``lint``, ``analyze`` and ``conform`` accept
BARE_MODELS = tuple(name for name in MODELS if name not in TARGETS)


def _lookup(table: dict, kind: str, name: str):
    if name not in table:
        raise UnknownName(f"unknown {kind} {name!r} ({'|'.join(table)})")
    return table[name]


def get_target(name: str) -> Target:
    return _lookup(TARGETS, "target", name)


def get_model(name: str) -> Callable[[], Specification]:
    return _lookup(MODELS, "model", name)


def kit(name: str, bugs=(), servers=("n1", "n2", "n3"), spec=None,
        config=None):
    """``(spec, mapping, cluster factory)`` for the target ``name``.

    With only a name this is what ``mocket test NAME`` runs: the
    target's catalog model against its correct build.  ``bugs`` seeds
    ``--bug`` flags; a scenario passes its own ``spec``, ``config`` and
    ``servers`` instead.
    """
    target = get_target(name)
    if config is None:
        known = target.bug_flags()
        for flag in bugs:
            if flag not in known:
                raise UnknownName(
                    f"unknown bug {flag!r} for {name}; known: {sorted(known)}")
        config = target.config(**dict.fromkeys(bugs, True))
    if spec is None:
        spec = get_model(target.model)()
    return (spec, target.build_mapping(spec, config),
            lambda: target.make_cluster(servers, config))


def spec_and_mapping(name: str, kind: str):
    """``(spec, mapping)`` for a name ``lint``, ``analyze`` and
    ``conform`` accept: a system's tested model with its mapping, or a
    bare model with ``None``.  ``raftkv`` names both a system and a
    model — the system wins, as in ``mocket test``.  ``kind`` words the
    unknown-name message."""
    if name in TARGETS:
        return kit(name)[:2]
    if name in BARE_MODELS:
        return MODELS[name](), None
    raise UnknownName(
        f"unknown {kind} {name!r} ({'|'.join((*TARGETS, *BARE_MODELS))})")
