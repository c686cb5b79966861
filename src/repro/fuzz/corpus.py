"""The on-disk fuzz corpus (``mocket-fuzz-corpus/1``).

A corpus directory holds every schedule that ever reached new coverage:

* ``corpus.json`` — the index: campaign metadata, per-entry coverage
  records, global fingerprint hit counts, and the deduplicated bug
  table keyed by stable triage divergence ids,
* ``plans/NNNN.json`` — one canonical ``mocket-fault-plan/1`` file per
  kept entry.

Everything written is canonical (sorted keys, fixed indentation, no
timestamps, fingerprints as fixed-width hex), so a corpus built with
the same ``--fuzz-seed`` is **byte-identical** across ``--workers``
counts and ``PYTHONHASHSEED`` values — the determinism guard in
``tests/fuzz`` diffs the raw files.

A corpus is resumable: reopening it with more budget continues the
campaign deterministically (per-run randomness is salted with the
global run counter, which the index persists).  Reopening with
mismatched metadata (different target, seed, suite shape or graph)
raises :class:`FuzzError` — coverage feedback against the wrong graph
would be meaningless; a damaged index or plan file raises
:class:`~repro.artifact.ArtifactError`.
"""

from __future__ import annotations

import os
from hashlib import blake2b
from typing import Any, Dict, List, Optional

from .. import artifact
from ..faults.plan import FaultPlan
from .fingerprint import Coverage, format_fp

__all__ = ["CORPUS_FORMAT", "FuzzError", "CorpusEntry", "Corpus"]

CORPUS_FORMAT = "mocket-fuzz-corpus/1"


class FuzzError(RuntimeError):
    """A corpus/campaign configuration error (CLI exit code 2)."""


def plan_digest(plan: FaultPlan) -> str:
    """Stable digest of a plan's canonical JSON — the dedup key."""
    return blake2b(plan.to_json().encode("utf-8"),
                   digest_size=8).hexdigest()


class CorpusEntry:
    """One kept schedule and the coverage that earned it a slot."""

    __slots__ = ("entry_id", "run", "op", "parent", "plan", "digest",
                 "coverage", "new_states", "new_edges", "divergences")

    def __init__(self, entry_id: int, run: int, op: str,
                 parent: Optional[int], plan: FaultPlan, digest: str,
                 coverage: Coverage, new_states: int, new_edges: int,
                 divergences: List[str]):
        self.entry_id = entry_id
        self.run = run              # global run counter when kept
        self.op = op                # "seed", "import", or a mutator name
        self.parent = parent        # entry id this was mutated from
        self.plan = plan
        self.digest = digest
        self.coverage = coverage
        self.new_states = new_states
        self.new_edges = new_edges
        self.divergences = list(divergences)

    def plan_filename(self) -> str:
        return f"plans/{self.entry_id:04d}.json"

    def to_jsonable(self) -> Dict[str, Any]:
        payload = {
            "id": self.entry_id,
            "run": self.run,
            "op": self.op,
            "parent": self.parent,
            "plan": self.plan_filename(),
            "digest": self.digest,
            "new_states": self.new_states,
            "new_edges": self.new_edges,
            "divergences": sorted(self.divergences),
        }
        payload.update(self.coverage.to_jsonable())
        return payload

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any],
                      plan: FaultPlan) -> "CorpusEntry":
        return cls(payload["id"], payload["run"], payload["op"],
                   payload["parent"], plan, payload["digest"],
                   Coverage.from_jsonable(payload),
                   payload["new_states"], payload["new_edges"],
                   list(payload["divergences"]))


class Corpus:
    """The corpus index plus its plan files; in-memory when rootless."""

    def __init__(self, root: Optional[str], meta: Dict[str, Any]):
        self.root = root
        self.meta = dict(meta)
        self.runs = 0               # total schedule executions so far
        self.entries: List[CorpusEntry] = []
        self.state_hits: Dict[int, int] = {}
        self.edge_hits: Dict[int, int] = {}
        self.bugs: Dict[str, Dict[str, Any]] = {}
        self._digests: Dict[str, int] = {}

    # -- opening ---------------------------------------------------------------
    @classmethod
    def open_or_create(cls, root: Optional[str],
                       meta: Dict[str, Any]) -> "Corpus":
        """Open an existing corpus (validating ``meta``) or start fresh."""
        index = None if root is None else os.path.join(root, "corpus.json")
        if index is None or not os.path.exists(index):
            return cls(root, meta)
        return artifact.read(index, CORPUS_FORMAT,
                             lambda payload: cls._reopen(root, meta, payload))

    @classmethod
    def _reopen(cls, root: str, meta: Dict[str, Any],
                payload: Dict[str, Any]) -> "Corpus":
        stored = payload["meta"]
        mismatched = sorted(key for key in set(meta) | set(stored)
                            if meta.get(key) != stored.get(key))
        if mismatched:
            detail = ", ".join(
                f"{key}: corpus has {stored.get(key)!r}, "
                f"campaign wants {meta.get(key)!r}" for key in mismatched)
            raise FuzzError(f"corpus at {root} does not match this "
                            f"campaign ({detail})")
        corpus = cls(root, stored)
        corpus.runs = payload["runs"]
        corpus.state_hits = {int(fp, 16): count for fp, count
                             in payload["state_hits"].items()}
        corpus.edge_hits = {int(fp, 16): count for fp, count
                            in payload["edge_hits"].items()}
        corpus.bugs = dict(payload["bugs"])
        for raw in payload["entries"]:
            plan = FaultPlan.load(os.path.join(root, raw["plan"]))
            entry = CorpusEntry.from_jsonable(raw, plan)
            corpus.entries.append(entry)
            corpus._digests[entry.digest] = entry.entry_id
        return corpus

    # -- feedback accounting ---------------------------------------------------
    def novelty(self, coverage: Coverage):
        """Fingerprints in ``coverage`` the corpus has never seen."""
        return coverage.new_against(self.state_hits, self.edge_hits)

    def observe(self, coverage: Coverage) -> None:
        """Count one run's visits into the global hit tables."""
        for fp in coverage.states:
            self.state_hits[fp] = self.state_hits.get(fp, 0) + 1
        for fp in coverage.edges:
            self.edge_hits[fp] = self.edge_hits.get(fp, 0) + 1

    def seen_plan(self, plan: FaultPlan) -> bool:
        return plan_digest(plan) in self._digests

    def add_entry(self, plan: FaultPlan, op: str, parent: Optional[int],
                  coverage: Coverage, new_states: int, new_edges: int,
                  divergences: List[str]) -> CorpusEntry:
        entry = CorpusEntry(len(self.entries), self.runs, op, parent, plan,
                            plan_digest(plan), coverage, new_states,
                            new_edges, divergences)
        self.entries.append(entry)
        self._digests[entry.digest] = entry.entry_id
        return entry

    def record_bug(self, bug_id: str, *, entry: Optional[int], kind: str,
                   case_id: int, anchor: Optional[int],
                   headline: str) -> bool:
        """Register a deduplicated bug; True when it is new."""
        if bug_id in self.bugs:
            return False
        self.bugs[bug_id] = {
            "run": self.runs,
            "entry": entry,
            "kind": kind,
            "case_id": case_id,
            "anchor": format_fp(anchor) if anchor is not None else None,
            "headline": headline,
        }
        return True

    def bug_anchor_fps(self):
        """State fingerprints near past bugs — the seed-selection bias."""
        return {int(info["anchor"], 16) for info in self.bugs.values()
                if info.get("anchor")}

    # -- totals ----------------------------------------------------------------
    def distinct_states(self) -> int:
        return len(self.state_hits)

    def distinct_edges(self) -> int:
        return len(self.edge_hits)

    # -- persistence -----------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format": CORPUS_FORMAT,
            "meta": self.meta,
            "runs": self.runs,
            "entries": [entry.to_jsonable() for entry in self.entries],
            "state_hits": {format_fp(fp): count for fp, count
                           in sorted(self.state_hits.items())},
            "edge_hits": {format_fp(fp): count for fp, count
                          in sorted(self.edge_hits.items())},
            "bugs": {bug_id: self.bugs[bug_id]
                     for bug_id in sorted(self.bugs)},
        }

    def save(self) -> None:
        """Write the index + every plan file (canonical bytes)."""
        if self.root is None:
            return
        os.makedirs(os.path.join(self.root, "plans"), exist_ok=True)
        for entry in self.entries:
            path = os.path.join(self.root, entry.plan_filename())
            if not os.path.exists(path):
                entry.plan.save(path)
        artifact.write(os.path.join(self.root, "corpus.json"),
                       self.to_jsonable())

    def __repr__(self) -> str:
        return (f"Corpus({len(self.entries)} entries, {self.runs} runs, "
                f"{len(self.bugs)} bugs)")
