"""Checkpoint/resume storage for long exploration runs.

A :class:`CheckpointStore` persists the checker's complete progress —
interned states, the per-source successor lists, the unexpanded
frontier and run metadata — after every BFS level, so that a long
``mocket check``/``testgen`` run killed at level *k* resumes from level
*k* instead of restarting.

Format (``mocket-checkpoint/1``), one directory per run:

* ``checkpoint.json`` — the latest snapshot, written atomically
  (temp file + ``os.replace``) so a crash mid-write never corrupts the
  resumable state.  Fields:

  - ``format``/``spec``/``level``/``complete`` — identity and progress,
  - ``states`` — ``[[fingerprint, encoded_state], ...]`` in discovery
    order, values encoded with the DOT tagged-literal encoding
    (:mod:`repro.tlaplus.dot`), so checkpoints are plain JSON and
    independent of Python pickling; dict entries are written in
    iteration order, which ``decode_value`` reproduces,
  - ``init`` — fingerprints of the initial states, in ``Init`` order,
  - ``succ`` — ``[[src_fp, [[action, encoded_params, dst_fp], ...]],
    ...]`` preserving the spec's ``enabled()`` emission order, which is
    what makes the rebuilt graph bit-identical to a serial run,
  - ``frontier`` — fingerprints absorbed but not yet expanded,
  - ``stats`` — states/edges/elapsed counters for progress reporting.

* ``history.jsonl`` — one appended line per saved level (level, states,
  frontier, wall seconds) for post-hoc inspection of exploration rate.

Fingerprints are redundant with the encoded states (they are recomputed
and verified on load) — they double as an integrity check on the file.

:class:`Checkpointer` is the checker's side of this: the hook
:class:`~repro.tlaplus.checker.ModelChecker` calls at BFS level
boundaries when (and only when) a store is attached.  It is the one
place exploration meets fingerprints — a ``check`` without a checkpoint
never computes one.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from ..obs import TRACER
from ..tlaplus.dot import decode_value
from ..tlaplus.errors import DotParseError
from ..tlaplus.graph import StateGraph
from ..tlaplus.state import ActionLabel, State
from ..tlaplus.values import FrozenDict
from .fingerprint import FingerprintCollision, fingerprint_state

__all__ = ["CheckpointError", "CheckpointStore", "Checkpointer"]

FORMAT = "mocket-checkpoint/1"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, corrupt, or mismatched."""


class CheckpointStore:
    """Atomic JSON snapshots of exploration progress in one directory."""

    def __init__(self, directory: str):
        self.directory = str(directory)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, "checkpoint.json")

    @property
    def history_path(self) -> str:
        return os.path.join(self.directory, "history.jsonl")

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- writing -----------------------------------------------------------
    def save(self, payload: Dict[str, Any]) -> None:
        """Atomically replace the snapshot and append a history line."""
        payload = dict(payload)
        payload["format"] = FORMAT
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix="checkpoint-", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self.path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        with open(self.history_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "level": payload.get("level"),
                "states": len(payload.get("states", ())),
                "frontier": len(payload.get("frontier", ())),
                "complete": payload.get("complete", False),
                "elapsed_seconds": payload.get("stats", {}).get(
                    "elapsed_seconds"),
            }) + "\n")

    # -- reading -----------------------------------------------------------
    def load(self, spec_name: Optional[str] = None) -> Dict[str, Any]:
        """Read and validate the latest snapshot.

        ``spec_name`` guards against resuming a checkpoint of a
        different model into the wrong run.
        """
        if not self.exists():
            raise CheckpointError(
                f"no checkpoint found at {self.path!r}; "
                f"run once with --checkpoint before --resume")
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {self.path!r}: {exc}") from exc
        if payload.get("format") != FORMAT:
            raise CheckpointError(
                f"{self.path!r} is not a {FORMAT} checkpoint "
                f"(format={payload.get('format')!r})")
        if spec_name is not None and payload.get("spec") != spec_name:
            raise CheckpointError(
                f"checkpoint {self.path!r} is for spec "
                f"{payload.get('spec')!r}, not {spec_name!r}")
        return payload

    def __repr__(self) -> str:
        return f"CheckpointStore({self.directory!r})"


def _tag(value: Any) -> Any:
    # dot._tag without the dict sort: spec domains iterate state dicts
    # (``in_flight`` walks the message bag), so a resumed state must
    # iterate exactly as the original did or ``enabled()`` would emit —
    # and the graph number — its successors in another order
    if isinstance(value, FrozenDict):
        return ("$dict", tuple((_tag(k), _tag(v)) for k, v in value.items()))
    if isinstance(value, tuple):
        return ("$tuple", tuple(_tag(v) for v in value))
    if isinstance(value, frozenset):
        return ("$set", tuple(sorted((_tag(v) for v in value), key=repr)))
    return value


class Checkpointer:
    """Snapshot writer/restorer the checker calls at level boundaries.

    Holds the record incrementally (node id -> fingerprint, the encoded
    ``states`` and ``succ`` lists), so each snapshot fingerprints and
    encodes only the states found since the previous one.
    """

    def __init__(self, store, spec_name: str):
        self.store = (store if isinstance(store, CheckpointStore)
                      else CheckpointStore(store))
        self.spec_name = spec_name
        self._fps: List[int] = []          # node id -> fingerprint
        self._known: set = set()
        self._states: List[list] = []      # payload "states"
        self._succ: List[list] = []        # payload "succ", expansion order
        self._unexpanded: List[int] = []   # frontier of the last snapshot

    # -- writing -----------------------------------------------------------
    def save(self, graph: StateGraph, frontier: List[int], level: int,
             complete: bool, violation, start: float) -> None:
        """Snapshot ``graph`` whose unexpanded states are ``frontier``."""
        started = time.perf_counter()
        fps = self._fps
        for node_id in range(len(fps), graph.num_states):
            state = graph.state_of(node_id)
            fingerprint = fingerprint_state(state)
            if fingerprint in self._known:
                raise FingerprintCollision(
                    f"fingerprint {fingerprint:#018x} maps to two distinct "
                    f"states of spec {self.spec_name!r}")
            self._known.add(fingerprint)
            fps.append(fingerprint)
            self._states.append([fingerprint, repr(_tag(state._vars))])
        for node_id in self._unexpanded:
            self._succ.append([fps[node_id], [
                [edge.label.name, repr(_tag(edge.label.params)),
                 fps[edge.dst]]
                for edge in graph.out_edges(node_id)]])
        self._unexpanded = list(frontier)
        violations = []
        if violation is not None:
            violations.append([len(violation.trace) - 1,
                               violation.invariant_name,
                               fps[graph.id_of(violation.state)]])
        self.store.save({
            "spec": self.spec_name,
            "level": level,
            "complete": complete,
            "states": self._states,
            "init": [fps[node_id] for node_id in graph.initial_ids],
            "succ": self._succ,
            "frontier": [fps[node_id] for node_id in frontier],
            "violations": violations,
            "stats": {
                "states": graph.num_states,
                "edges": graph.num_edges,
                "elapsed_seconds": time.monotonic() - start,
            },
        })
        if TRACER.enabled:
            TRACER.emit("engine.checkpoint", level=level,
                        states=graph.num_states,
                        seconds=time.perf_counter() - started,
                        path=self.store.path)

    # -- reading -----------------------------------------------------------
    def restore(self) -> Tuple[StateGraph, Dict[int, Optional[tuple]],
                               List[int], int, Optional[Tuple[int, str]]]:
        """Rebuild the checker's position from the latest snapshot.

        Returns ``(graph, parents, frontier, level, violated)`` —
        ``violated`` is the first-discovered ``(node id, invariant)`` the
        snapshot recorded, or None.  ``load`` raises when nothing is
        there: the caller asked to resume, silently starting over would
        be worse.
        """
        payload = self.store.load(self.spec_name)
        try:
            restored = self._replay(payload)
        except (KeyError, IndexError, TypeError, ValueError,
                DotParseError) as exc:
            raise CheckpointError(
                f"malformed checkpoint {self.store.path!r}: "
                f"{type(exc).__name__}: {exc}") from exc
        graph, _, frontier, level, _ = restored
        if TRACER.enabled:
            TRACER.emit("engine.resume", level=level,
                        states=graph.num_states, frontier=len(frontier),
                        complete=bool(payload.get("complete")))
        return restored

    def _replay(self, payload: Dict[str, Any]):
        """Replay a serial FIFO BFS over the stored record.

        The record keeps, per expanded state, its successors in
        ``enabled()`` emission order; walking it first-in-first-out from
        the initial states repeats the checker's ``add_state``/
        ``add_edge`` calls one for one, so ids and edge order come back
        exactly as they were.
        """
        states: Dict[int, State] = {}
        for fingerprint, encoded in payload["states"]:
            state = State(dict(decode_value(encoded)))
            if fingerprint_state(state) != fingerprint:
                raise CheckpointError(
                    f"checkpoint integrity failure in {self.store.path!r}: "
                    f"stored fingerprint {fingerprint:#018x} does not match "
                    f"the re-encoded state (corrupt or hand-edited?)")
            states[fingerprint] = state
        succ = {src_fp: successors for src_fp, successors in payload["succ"]}
        unexpanded = set(payload["frontier"])
        if (unexpanded & succ.keys()
                or unexpanded | succ.keys() != states.keys()):
            raise ValueError("states, succ and frontier do not tile")

        graph = StateGraph(self.spec_name)
        parents: Dict[int, Optional[tuple]] = {}
        depth: Dict[int, int] = {}
        ids: Dict[int, int] = {}
        order: List[int] = []              # fingerprints, discovery order
        for fingerprint in payload["init"]:
            if fingerprint not in ids:
                node_id = graph.add_state(states[fingerprint], initial=True)
                ids[fingerprint] = node_id
                parents[node_id] = None
                depth[node_id] = 0
                order.append(fingerprint)
        for src_fp in order:               # grows while iterated: the queue
            src = ids[src_fp]
            for name, params, dst_fp in succ.get(src_fp, ()):
                label = ActionLabel(name, dict(decode_value(params)))
                dst = ids.get(dst_fp)
                if dst is None:
                    dst = ids[dst_fp] = graph.add_state(states[dst_fp])
                    parents[dst] = (src, label)
                    depth[dst] = depth[src] + 1
                    order.append(dst_fp)
                graph.add_edge(src, dst, label)
        if len(order) != len(states):
            raise ValueError(
                f"{len(states) - len(order)} state(s) unreachable from init")

        self._fps = order
        self._known = set(order)
        self._states = payload["states"]
        self._succ = payload["succ"]
        # FIFO order, whatever order the file lists the frontier in
        return (graph, parents,
                [ids[fp] for fp in order if fp in unexpanded],
                max(depth.values(), default=0),
                min(((ids[fp], invariant) for _, invariant, fp
                     in payload.get("violations", ())), default=None))
