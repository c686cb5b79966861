"""``repro.fuzz`` — model-guided fuzzing of fault schedules.

Closes the coverage-feedback loop over the nemesis layer (Gulcan /
Majumdar / Ozkan, "Model-guided Fuzzing of Distributed Systems"): run a
``mocket-fault-plan/1`` schedule, fingerprint which verified
states/edges of the canonical graph the run visited, keep the schedule
in an on-disk corpus only if it reached new coverage, and breed the
next schedule by mutating an energy-picked corpus entry — biased toward
rarely-hit graph regions and the neighbourhood of past unattributed
divergences.  ``mocket fuzz <target> --budget N --corpus DIR`` is the
front end; see docs/FUZZING.md.

The whole loop is deterministic: one ``--fuzz-seed`` stream drives
seed selection and mutation, coverage is content-anchored blake2b
fingerprinting, and the corpus serialization is canonical — the same
seed yields byte-identical corpora across ``--workers`` counts and
``PYTHONHASHSEED`` values.
"""

from .corpus import CORPUS_FORMAT, Corpus, CorpusEntry, FuzzError
from .energy import entry_energy, pick_entry
from .fingerprint import (
    Coverage,
    GraphIndex,
    case_coverage,
    edge_fingerprint,
    format_fp,
    run_coverage,
)
from .loop import FuzzResult, fuzz_campaign
from .mutators import MUTATORS, Mutator
from .report import fuzz_dict, render_fuzz_json, render_fuzz_text

__all__ = [
    "CORPUS_FORMAT",
    "FuzzError",
    "Corpus",
    "CorpusEntry",
    "Coverage",
    "GraphIndex",
    "case_coverage",
    "run_coverage",
    "edge_fingerprint",
    "format_fp",
    "entry_energy",
    "pick_entry",
    "MUTATORS",
    "Mutator",
    "FuzzResult",
    "fuzz_campaign",
    "fuzz_dict",
    "render_fuzz_json",
    "render_fuzz_text",
]
