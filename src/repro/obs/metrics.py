"""Lightweight metrics: counters, gauges and histogram timers.

A flat, name-keyed registry.  Instruments are created lazily on first
use and are cheap enough to update from instrumented hot paths (a lock
acquire plus an add).  Metric *collection* follows the tracer's enabled
flag at the call sites — the registry itself is always live so tests
and benches can use it directly.

Snapshots are deterministic: plain dicts with sorted keys and stable
value shapes, so two runs over the same workload produce comparable
(and diffable) snapshots modulo timing-valued instruments.

Metric names in use across the pipeline (see docs/OBSERVABILITY.md):

``checker.states`` ``checker.edges`` ``checker.states_per_sec``
``checker.frontier_peak`` ``checker.diameter``
``checker.refused_successors`` ``testgen.cases``
``testgen.actions`` ``testgen.edge_coverage_pct``
``por.pruned_edges`` ``scheduler.notifications``
``scheduler.queue_wait_seconds`` ``runner.cases`` ``runner.steps``
``runner.step_seconds`` ``statecheck.compares``
``statecheck.mismatches`` ``divergence.<kind>`` ``fault.injected``

The parallel suite executor (docs/ENGINE.md) adds:

``engine.executor_workers`` ``engine.cases_per_sec``
``engine.executor_utilization``
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def max(self, value: Any) -> None:
        """Keep the high-water mark (e.g. peak frontier size)."""
        if value > self.value:
            self.value = value

    def snapshot(self) -> Any:
        return self.value


class Histogram:
    """Summary statistics over observed samples (timers, sizes)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Name-keyed instruments with deterministic snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (create-or-get) ------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    # -- one-shot conveniences -------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Any) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def time(self, name: str):
        """Context manager observing the block's wall time in ``name``."""
        return _Timer(self, name)

    # -- output ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one dict with sorted keys.

        Counters and gauges map to their value; histograms to a
        ``{count,sum,min,max,mean}`` dict.
        """
        with self._lock:
            out: Dict[str, Any] = {}
            for name in sorted(self._counters):
                out[name] = self._counters[name].snapshot()
            for name in sorted(self._gauges):
                out[name] = self._gauges[name].snapshot()
            for name in sorted(self._histograms):
                out[name] = self._histograms[name].snapshot()
            return dict(sorted(out.items()))

    def render(self) -> str:
        """The snapshot as an aligned text table."""
        rows: List[Tuple[str, str]] = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):      # histogram summary
                rendered = (f"count={value['count']} sum={value['sum']:.6f} "
                            f"min={value['min']:.6f} max={value['max']:.6f} "
                            f"mean={value['mean']:.6f}")
            elif isinstance(value, float):
                rendered = f"{value:.6f}"
            else:
                rendered = str(value)
            rows.append((name, rendered))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {rendered}"
                         for name, rendered in rows)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class _Timer:
    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        import time

        self._start = time.monotonic()
        return self

    def __exit__(self, *exc) -> bool:
        import time

        self._registry.observe(self._name, time.monotonic() - self._start)
        return False


#: The process-wide registry every instrumented call site talks to.
METRICS = MetricsRegistry()
