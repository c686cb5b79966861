"""Resolving lint target names to :class:`LintContext` objects.

Names come from :mod:`repro.systems.catalog`.  A *system* target yields
the full triple — the catalog's spec and mapping (what ``mocket test``
runs) plus the :class:`ImplModel` parsed from the system's package.  A
*bare model* (a model name that is not also a system) yields the
specification alone; only the spec rules apply.
"""

from __future__ import annotations

import os
from typing import List

from ..systems.catalog import (
    BARE_MODELS, TARGETS, UnknownName, get_model, get_target, kit,
)
from .astmodel import ImplModel
from .engine import LintContext

__all__ = ["resolve", "all_targets"]


def all_targets() -> List[str]:
    """Every bundled target name: systems first, then bare models."""
    return [*TARGETS, *BARE_MODELS]


def resolve(name: str) -> LintContext:
    """Build the lint context for one target name."""
    if name in TARGETS:
        spec, mapping, _factory = kit(name)
        package = os.path.dirname(get_target(name).package.__file__)
        return LintContext(name, spec, mapping, ImplModel.from_package(package))
    if name in BARE_MODELS:
        return LintContext(name, get_model(name)())
    raise UnknownName(
        f"unknown lint target {name!r} (known: {'|'.join(all_targets())})")
