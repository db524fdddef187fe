"""Shared observability package: metrics, timings and the event journal.

Promoted out of :mod:`repro.fleet` so that *every* layer of the
runtime — the acquisition engine, the campaign/cache plumbing, the
experiment registry and the fleet service — reports through one
instrumentation surface:

* :class:`MetricsRegistry` — lazily created, thread-safe counters,
  gauges and p50/p95/p99 histograms with ``time()`` stage hooks;
* :class:`EventJournal` — the timestamp-free, atomically flushed JSONL
  event log.

Most call sites do not thread a registry explicitly; they report to
the **active** registry:

* :func:`active_metrics` returns the innermost registry installed with
  :func:`use_metrics`, falling back to one process-global registry;
* :func:`use_metrics` scopes a fresh (or given) registry to a block —
  the experiment registry wraps every ``repro run`` in one so each
  :class:`~repro.experiments.result.RunResult` artifact carries
  exactly the metrics of its own run.

Instrumentation recorded inside :mod:`repro.experiments.parallel`
worker *processes* is not lost: each worker records into its own
scoped registry and returns its
:meth:`~repro.obs.metrics.MetricsRegistry.state_dict` with the
campaign result, and :func:`~repro.experiments.parallel.run_campaigns`
folds it into the coordinating process's active registry with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_state`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.obs.journal import EVENT_KINDS, EventJournal
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SUMMARY_PERCENTILES,
    format_snapshot,
)

__all__ = [
    "EVENT_KINDS",
    "EventJournal",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SUMMARY_PERCENTILES",
    "format_snapshot",
    "active_metrics",
    "use_metrics",
]

#: Fallback registry when no scoped registry is installed.  Process-
#: global, so ad-hoc driver calls still aggregate somewhere inspectable.
_GLOBAL_REGISTRY = MetricsRegistry()

_SCOPED: list[MetricsRegistry] = []


def active_metrics() -> MetricsRegistry:
    """The registry instrumented code should report to right now."""
    if _SCOPED:
        return _SCOPED[-1]
    return _GLOBAL_REGISTRY


@contextlib.contextmanager
def use_metrics(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Scope *registry* (or a fresh one) as the active registry.

    Nests; the innermost scope wins and the previous active registry
    is restored on exit.  Yields the registry so the caller can
    snapshot it afterwards.
    """
    reg = registry if registry is not None else MetricsRegistry()
    _SCOPED.append(reg)
    try:
        yield reg
    finally:
        _SCOPED.pop()
