"""Fleet monitoring service: many chips, streaming, supervised.

The paper's runtime framing — "the monitor keeps reading the EM sensor
output" — scaled out to a fleet of deployed chips:

* :class:`~repro.fleet.feed.TraceFeed` — replays acquisition/cache
  campaigns as per-chip streams with arrival batching and
  deterministic injected link faults (drops / duplicates / reorders);
* :class:`~repro.fleet.session.MonitorSession` — an instrumented
  :class:`~repro.framework.monitor.RuntimeMonitor` wrapper with
  stream accounting;
* :class:`~repro.fleet.scheduler.FleetScheduler` — the one
  single-process tick loop every fleet run takes: bounded per-chip
  queues, an explicit backpressure policy (``block`` /
  ``drop_oldest``, drop counts always surfaced), batched scoring and
  an early stop that a second run continues;
* :class:`~repro.fleet.producer.StreamingTraceProducer` — live trace
  generation: chunked, double-buffered acquisition overlapped with
  scoring, with the :class:`~repro.fleet.producer.ChunkPlan` and its
  per-chunk RNG roles part of the campaign's definition;
* :class:`~repro.obs.metrics.MetricsRegistry` and
  :class:`~repro.obs.journal.EventJournal` (shared :mod:`repro.obs`
  package, re-exported here) — counters, gauges,
  p50/p95/p99 latency histograms, per-stage timing hooks and an
  atomically flushed JSONL event journal;
* :func:`~repro.fleet.campaign.run_fleet_campaign` and the
  ``repro fleet`` command — the simulated golden + T1–T4 + A2
  fleet campaign with combined time/spectral verdicts.

See ``docs/FLEET.md`` for the architecture, the backpressure policy
and the metrics glossary.
"""

from repro.fleet.feed import FaultSpec, NO_FAULTS, TraceFeed, WindowBatch
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry, format_snapshot
from repro.fleet.scheduler import (
    ChipReport,
    FleetResult,
    FleetScheduler,
)
from repro.fleet.session import MonitorSession, floor_scaled_threshold
from repro.fleet.producer import (
    ArrayChunkSource,
    ChunkPlan,
    GroupChunkSource,
    ProducerTraceSource,
    StreamingTraceProducer,
    chunk_role,
)
from repro.fleet.campaign import (
    DEFAULT_FLEET,
    ChipVerdict,
    FleetCampaignResult,
    FleetConfig,
    run_fleet_campaign,
)

__all__ = [
    "FaultSpec",
    "NO_FAULTS",
    "TraceFeed",
    "WindowBatch",
    "EventJournal",
    "MetricsRegistry",
    "format_snapshot",
    "ChipReport",
    "FleetResult",
    "FleetScheduler",
    "MonitorSession",
    "floor_scaled_threshold",
    "ArrayChunkSource",
    "ChunkPlan",
    "GroupChunkSource",
    "ProducerTraceSource",
    "StreamingTraceProducer",
    "chunk_role",
    "DEFAULT_FLEET",
    "ChipVerdict",
    "FleetCampaignResult",
    "FleetConfig",
    "run_fleet_campaign",
]
