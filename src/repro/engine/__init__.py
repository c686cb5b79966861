"""repro.engine — resumable checking and parallel suite execution.

The engine owns *how* work runs; the checker/testgen/testbed layers own
*what* runs.  It provides:

* :mod:`~repro.engine.fingerprint` — stable 64-bit state fingerprints
  over a canonical byte encoding (process- and run-independent, unlike
  Python's randomized ``hash``),
* :mod:`~repro.engine.checkpoint` — per-level snapshot/resume storage
  (:class:`CheckpointStore`) and the level-boundary hook the model
  checker calls when one is attached,
* :mod:`~repro.engine.canon` — deterministic canonical renumbering of
  state graphs, the oracle for "same exploration, different order",
* :mod:`~repro.engine.executor` — parallel ``mocket test`` suite
  execution with per-case process isolation and deterministic merging.

See ``docs/ENGINE.md`` for the architecture.
"""

from .canon import canonical_signature, canonicalize, graphs_equivalent
from .checkpoint import CheckpointError, CheckpointStore
from .executor import (
    EngineError,
    EngineFallbackWarning,
    fork_available,
    run_suite_parallel,
)
from .fingerprint import (
    FingerprintCollision,
    canonical_state,
    canonical_value,
    encode_canonical,
    fingerprint_label,
    fingerprint_state,
    fingerprint_value,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "EngineError",
    "EngineFallbackWarning",
    "FingerprintCollision",
    "canonical_signature",
    "canonical_state",
    "canonical_value",
    "canonicalize",
    "encode_canonical",
    "fingerprint_label",
    "fingerprint_state",
    "fingerprint_value",
    "fork_available",
    "graphs_equivalent",
    "run_suite_parallel",
]
