"""Shared observability: counters, gauges and latency histograms.

A deliberately small, dependency-free metrics registry in the
Prometheus idiom, used across the whole runtime — the acquisition
engine, the campaign cache layer, the experiment registry and the
fleet service all report through it.  Instruments are created lazily
by name (:meth:`MetricsRegistry.counter` / :meth:`gauge` /
:meth:`histogram`), are individually thread-safe (the threaded fleet
scheduler fans ingestion across workers), and snapshot into plain
JSON-encodable dictionaries so a run can persist its metrics inside
its :class:`~repro.experiments.result.RunResult` artifact or next to
the event journal.

Timing instrumentation goes through :meth:`MetricsRegistry.time`,
a context manager that lands ``perf_counter`` durations in a
histogram; the per-stage hooks around the simulator cycle loop
(:mod:`repro.chip.acquire`), trace generation
(:mod:`repro.experiments.campaign`) and the monitor session stages
(:mod:`repro.fleet.session`) use it.  Latency histograms report
p50/p95/p99 in their summaries.

Code that wants to report without threading a registry through every
call reads the *active* registry via :func:`repro.obs.active_metrics`;
:func:`repro.obs.use_metrics` scopes a fresh registry to one run.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from repro.errors import ExperimentError

#: Percentiles reported by every histogram summary.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> int:
        """Add *n* (must be >= 0); returns the new value."""
        if n < 0:
            raise ExperimentError(f"counter {self.name}: cannot add {n}")
        with self._lock:
            self._value += n
            return self._value

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (queue depths, high-water marks)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water tracking)."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Sample distribution with percentile summaries (p50/p95/p99)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def percentile(self, q: float) -> float:
        """q-th percentile of the observed samples (0 when empty)."""
        with self._lock:
            if not self._values:
                return 0.0
            return float(np.percentile(self._values, q))

    def samples(self) -> list[float]:
        """Copy of every observed sample (full fidelity, not a summary)."""
        with self._lock:
            return list(self._values)

    def merge(self, other: "Histogram | list[float]") -> "Histogram":
        """Fold another histogram's samples into this one, exactly.

        Histograms store their raw samples, so the merge is a plain
        concatenation and every percentile of the merged histogram is
        **exact**: ``merged.percentile(q)`` equals ``np.percentile``
        over the concatenated sample list, with no bucket-boundary
        approximation.  This is what lets the registries of campaign
        pool workers roll up into correct run-wide p50/p95/p99 —
        quantiles are not averaged across workers (averaging
        per-worker percentiles is wrong for any skewed distribution),
        the samples themselves are pooled.
        """
        incoming = other.samples() if isinstance(other, Histogram) else [
            float(v) for v in other
        ]
        with self._lock:
            self._values.extend(incoming)
        return self

    def summary(self) -> dict:
        """JSON-encodable summary: count, sum, mean, p50/p95/p99, max."""
        with self._lock:
            values = list(self._values)
        if not values:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "max": 0.0,
                    **{f"p{int(q)}": 0.0 for q in SUMMARY_PERCENTILES}}
        arr = np.asarray(values, dtype=np.float64)
        out = {
            "count": int(arr.size),
            "sum": float(arr.sum()),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }
        for q in SUMMARY_PERCENTILES:
            out[f"p{int(q)}"] = float(np.percentile(arr, q))
        return out


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(name, Histogram(name))

    @contextlib.contextmanager
    def time(self, name: str):
        """Time the enclosed block into histogram *name* (seconds)."""
        hist = self.histogram(name)
        start = time.perf_counter()
        try:
            yield hist
        finally:
            hist.observe(time.perf_counter() - start)

    def state_dict(self) -> dict:
        """Full-fidelity registry state (counters, gauges, samples).

        Unlike :meth:`snapshot`, histograms are dumped as their raw
        sample lists, so the state can cross a process boundary (the
        :mod:`repro.experiments.parallel` pool workers return theirs
        with each campaign result) and be
        folded into another registry with :meth:`merge_state` without
        losing percentile exactness.  JSON-encodable.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.samples() for n, h in sorted(histograms.items())
            },
        }

    def merge_state(self, state: dict) -> "MetricsRegistry":
        """Fold a :meth:`state_dict` into this registry.

        Counters add, gauges keep the running maximum (every gauge in
        the runtime is a high-water mark), histograms pool their raw
        samples via :meth:`Histogram.merge` — so merged percentiles
        are exact on the union of the samples.  Instruments missing on
        either side are created / left untouched.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).max(float(value))
        for name, samples in state.get("histograms", {}).items():
            self.histogram(name).merge(samples)
        return self

    def snapshot(self) -> dict:
        """All instruments as one JSON-encodable dictionary."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
        }


def format_snapshot(snap: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dictionary."""
    lines = ["metrics:"]
    for name, value in snap["counters"].items():
        lines.append(f"  {name} = {value}")
    for name, value in snap["gauges"].items():
        lines.append(f"  {name} = {value:g}")
    for name, s in snap["histograms"].items():
        lines.append(
            f"  {name}: n={s['count']} mean={s['mean']:.3e}s "
            f"p50={s['p50']:.3e}s p95={s['p95']:.3e}s "
            f"p99={s['p99']:.3e}s max={s['max']:.3e}s"
        )
    return "\n".join(lines)
