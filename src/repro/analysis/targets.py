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

from ..systems.catalog import BARE_MODELS, TARGETS, spec_and_mapping
from .astmodel import ImplModel
from .engine import LintContext

__all__ = ["resolve", "all_targets"]


def all_targets() -> List[str]:
    """Every bundled target name: systems first, then bare models."""
    return [*TARGETS, *BARE_MODELS]


def resolve(name: str) -> LintContext:
    """Build the lint context for one target name."""
    spec, mapping = spec_and_mapping(name, "lint target")
    if mapping is None:
        return LintContext(name, spec)
    package = os.path.dirname(TARGETS[name].package.__file__)
    return LintContext(name, spec, mapping, ImplModel.from_package(package))
