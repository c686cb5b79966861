"""Span recorder, round loop and statistics of the pipeline benchmark.

A workload is a ``setup()`` plus a ``round()`` of fixed work.  The
harness repeats rounds until the measuring time is spent and reports
one round with every stage at its fastest, so a number means the same
however many rounds fit and is as steady as a shared host allows.

Two sources of spans, as ISSUE 11 asks:

* the harness's own :class:`Recorder` wraps every public call a round
  makes (one *stage* span per call, all children of the round span);
* in a traced round ``repro.obs`` is switched on around each stage and
  its spans are nested under the stage span by time containment.

End-to-end numbers only ever come from untraced rounds.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import METRICS, TRACER, configure, disable, reset

#: ring-buffer size while a stage is traced; the buffer is drained at
#: the end of every stage, so it only has to hold one stage's records
OBS_CAPACITY = 1 << 18
#: a traced run spends this share of ``--seconds`` on rounds and the
#: rest on the layer probes (deploy cycles, fingerprints, fault run ...)
TRACED_ROUND_SHARE = 0.75
#: stage spans must tile a round: what the acceptance criteria demand
MIN_SPAN_COVERAGE = 0.95

ROOT = Path(__file__).resolve().parents[2]


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """``ru_maxrss`` of the process (or its largest child), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def header(workload: str, seed: int, mode: str,
           models: Dict[str, List[int]]) -> Dict[str, Any]:
    """The shared header every record carries: no bench number without
    its core count and model size (ROADMAP aim 1)."""
    return {
        "workload": workload,
        "seed": seed,
        "sizes": mode,
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "models": models,
    }


class Recorder:
    """Spans, counts, samples and known-answer verdicts of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.rounds: List[Dict[str, Any]] = []
        self.samples: Dict[str, List[float]] = {}
        self.sample_counts: Dict[str, int] = {}  # percentile metric -> n
        self.counts: Dict[str, float] = {}      # traced rounds, summed
        self.exact: Dict[str, Any] = {}         # must repeat bit-for-bit
        self.models: Dict[str, List[int]] = {}  # model -> [states, edges]
        self.attempted = 0
        self.failures: List[str] = []
        self.obs_records = 0
        self.obs_dropped = 0
        self.obs_metrics: Dict[str, Any] = {}   # METRICS of the last traced round
        self.traced = False                     # is the open round traced?
        self._round: Optional[Dict[str, Any]] = None
        self._next_id = 0

    # -- spans -----------------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str):
        """Time one public call as a stage span of the open round."""
        span_id = self._new_id()
        epoch = 0.0
        if self.traced:
            reset()
            epoch = time.monotonic()    # the tracer's epoch, to ~1 us
            configure(enabled=True, capacity=OBS_CAPACITY)
        cpu0 = cpu_seconds()
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            record = {"id": span_id, "parent": self._round["id"],
                      "run": self.run_id, "round": self._round["index"],
                      "phase": self._round["phase"],
                      "traced": self.traced, "source": "harness",
                      "name": name, "start": start, "end": end,
                      "cpu": cpu_seconds() - cpu0}
            self.spans.append(record)
            if self.traced:
                disable()
                self._drain_obs(record, epoch)

    def _drain_obs(self, stage: Dict[str, Any], epoch: float) -> None:
        """Move the stage's ``repro.obs`` spans under the stage span."""
        self.obs_records += TRACER.emitted
        self.obs_dropped += TRACER.dropped
        inner = [{"id": self._new_id(), "parent": stage["id"],
                  "run": self.run_id, "round": stage["round"],
                  "phase": stage["phase"],
                  "traced": True, "source": "obs", "name": event.name,
                  "start": epoch + event.ts,
                  "end": epoch + event.ts + event.dur,
                  "fields": event.fields}
                 for event in TRACER.events() if event.kind == "span"]
        # time containment: walk in start order keeping the open spans
        inner.sort(key=lambda s: (s["start"], -s["end"]))
        open_spans: List[Dict[str, Any]] = []
        for span in inner:
            while open_spans and open_spans[-1]["end"] < span["end"]:
                open_spans.pop()
            if open_spans:
                span["parent"] = open_spans[-1]["id"]
            open_spans.append(span)
        self.spans.extend(inner)

    # -- rounds ----------------------------------------------------------------
    def begin_round(self, traced: bool, phase: str = "round") -> None:
        """Open a round, or the probe phase of a traced run (``phase``
        ``"probe"``: spans are kept, but it is no sample of a round)."""
        self.traced = traced
        if traced and phase == "round":
            METRICS.reset()
        self._round = {"id": self._new_id(), "index": len(self.rounds),
                       "phase": phase, "traced": traced, "exact": {},
                       "paused": 0.0, "paused_cpu": 0.0,
                       "cpu0": cpu_seconds(), "start": time.monotonic()}

    def end_round(self) -> None:
        current = self._round
        current["end"] = time.monotonic()
        current["wall"] = (current["end"] - current["start"]
                           - current.pop("paused"))
        current["cpu"] = (cpu_seconds() - current.pop("cpu0")
                          - current.pop("paused_cpu"))
        stages = [s for s in self.spans
                  if s["parent"] == current["id"]]
        current["span_sum"] = sum(s["end"] - s["start"] for s in stages)
        if self.traced and current["phase"] == "round":
            self.obs_metrics = METRICS.snapshot()
        self.traced = False
        self._round = None
        self.spans.append({"id": current["id"], "parent": None,
                           "run": self.run_id, "round": current["index"],
                           "phase": current["phase"],
                           "traced": current["traced"], "source": "harness",
                           "name": current["phase"],
                           "start": current["start"], "end": current["end"],
                           "cpu": current["cpu"]})
        if current["phase"] == "round":
            self.rounds.append(current)
        if current["phase"] == "round" and not current["traced"]:
            self.verdict(
                current["span_sum"] >= MIN_SPAN_COVERAGE * current["wall"],
                f"round {current['index']}: stage spans tile the round")
        for name, value in current["exact"].items():
            first = self.exact.setdefault(name, value)
            self.verdict(first == value,
                         f"round {current['index']}: exact count {name} "
                         f"repeats ({first!r} vs {value!r})")

    @contextmanager
    def untimed(self):
        """Stop the round's clocks: the expensive oracles run in here."""
        cpu0, start = cpu_seconds(), time.monotonic()
        try:
            yield
        finally:
            self._round["paused"] += time.monotonic() - start
            self._round["paused_cpu"] += cpu_seconds() - cpu0

    @property
    def first_round(self) -> bool:
        return self._round["phase"] == "round" and self._round["index"] == 0

    # -- what a round reports --------------------------------------------------
    def verdict(self, ok: bool, label: str) -> None:
        """One known-answer op: counted, and listed when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def exact_count(self, name: str, value: Any) -> None:
        """A count that must repeat bit-for-bit between rounds and runs."""
        self._round["exact"][name] = value

    def model(self, name: str, states: int, edges: int,
              pinned: Tuple[int, int]) -> None:
        """Record a model's size and check it against its pinned size."""
        self.models[name] = [states, edges]
        self.exact_count(f"{name}.states", states)
        self.exact_count(f"{name}.edges", edges)
        self.verdict((states, edges) == tuple(pinned),
                     f"{name}: {states}/{edges} states/edges, "
                     f"pinned {pinned[0]}/{pinned[1]}")

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a layer counter (kept for traced rounds only)."""
        if self.traced:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, values: Iterable[float]) -> None:
        """Pool samples for a percentile (traced rounds only)."""
        if self.traced:
            self.samples.setdefault(name, []).extend(values)

    def percentile(self, metric: str, samples: List[float], q: float) -> float:
        """The ``q``-quantile (0 < q < 1) of ``samples`` for ``metric``.

        Percentile hygiene: the sample count is kept, to be printed
        beside the value, and anything above the median is reported
        only when at least ten samples lie beyond it (0 otherwise).
        """
        n = len(samples)
        self.sample_counts[metric] = n
        if n == 0 or (q > 0.5 and n * (1.0 - q) < 10):
            return 0.0
        return sorted(samples)[min(n - 1, int(q * n))]

    # -- end-to-end: read from the untraced rounds ------------------------------
    def best_round(self, key: str) -> float:
        """One round's ``"wall"`` or ``"cpu"`` with every stage at its
        fastest over the untraced rounds (plus the least time between
        stages).  Contention from the host's other tenants only ever
        adds time, so the fastest repeat of a stage is the steadiest
        estimate of what the code itself costs."""
        rounds = {r["id"]: r for r in self.rounds if not r["traced"]}
        fastest: Dict[str, float] = {}
        inside = dict.fromkeys(rounds, 0.0)
        for span in self.spans:
            if span["parent"] in rounds:
                cost = (span["end"] - span["start"] if key == "wall"
                        else span["cpu"])
                inside[span["parent"]] += cost
                fastest[span["name"]] = min(cost, fastest.get(span["name"],
                                                              cost))
        between = min(rounds[i][key] - inside[i] for i in rounds)
        return sum(fastest.values()) + max(between, 0.0)

    # -- reading the traced rounds ---------------------------------------------
    def per_round(self, total: float) -> float:
        """A traced-rounds total as a per-round mean."""
        rounds = sum(1 for r in self.rounds if r["traced"])
        return total / rounds if rounds else 0.0

    def count_per_round(self, name: str) -> float:
        """A layer counter as a per-round mean over the traced rounds."""
        return self.per_round(self.counts.get(name, 0))

    def _matching(self, name: str, source: str,
                  phase: str = "round") -> List[Dict[str, Any]]:
        return [s for s in self.spans
                if s["traced"] and s["source"] == source
                and s["phase"] == phase
                and (s["name"] == name or s["name"].startswith(name + "."))]

    def probe_s(self, name: str) -> float:
        """Wall of the probe-phase stage spans called ``name[.*]``."""
        return sum(s["end"] - s["start"]
                   for s in self._matching(name, "harness", "probe"))

    def stage_s(self, name: str) -> float:
        """Mean per-round wall of the stage spans called ``name[.*]``."""
        return self.per_round(sum(s["end"] - s["start"]
                                  for s in self._matching(name, "harness")))

    def stage_cpu_s(self, name: str) -> float:
        return self.per_round(sum(s["cpu"]
                                  for s in self._matching(name, "harness")))

    def obs_spans(self, name: str) -> List[Dict[str, Any]]:
        return self._matching(name, "obs")

    def obs_s(self, name: str) -> float:
        """Mean per-round wall of the ``repro.obs`` spans called ``name``."""
        return self.per_round(sum(s["end"] - s["start"]
                                  for s in self.obs_spans(name)))

    def obs_self_s(self, name: str) -> float:
        """Mean per-round *self* time of the obs spans called ``name``: a
        span's duration minus the interval its children cover."""
        wanted = self.obs_spans(name)
        ids = {s["id"] for s in wanted}
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] in ids:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        total = 0.0
        for span in wanted:
            covered, reach = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start, end = max(start, reach), min(end, span["end"])
                if end > start:
                    covered += end - start
                    reach = end
            total += (span["end"] - span["start"]) - covered
        return self.per_round(total)

    def traced_overhead_pct(self) -> float:
        """Traced vs untraced wall of the same stages, in percent."""
        traced = [r["span_sum"] for r in self.rounds if r["traced"]]
        plain = [r["span_sum"] for r in self.rounds if not r["traced"]]
        if not traced or not plain:
            return 0.0
        return 100.0 * (statistics.median(traced)
                        / statistics.median(plain) - 1.0)

    def span_coverage(self) -> float:
        plain = [r["span_sum"] / r["wall"] for r in self.rounds
                 if not r["traced"]]
        return min(plain) if plain else 0.0


def run_rounds(workload, context, recorder: Recorder, seconds: float,
               traced: bool) -> None:
    """Repeat ``workload.round`` until the measuring time is spent.

    Another round starts only while the median round so far still fits
    in the time left, so a run measures for at most ``seconds`` unless
    a single round is longer.  A traced run (``--trace 1``) traces
    every round but its second, and always makes two.
    """
    budget = seconds * (TRACED_ROUND_SHARE if traced else 1.0)
    least = 2 if traced else 1
    started = time.monotonic()
    while True:
        index = len(recorder.rounds)
        recorder.begin_round(traced=traced and index != 1)
        workload.round(context, recorder)
        recorder.end_round()
        walls = [r["wall"] for r in recorder.rounds]
        spent = time.monotonic() - started
        if len(walls) >= least and spent + statistics.median(walls) > budget:
            return


def log(message: str) -> None:
    """Progress goes to stderr; stdout carries the metric lines."""
    print(message, file=sys.stderr, flush=True)
