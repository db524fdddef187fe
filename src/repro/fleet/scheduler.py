"""Fleet scheduler: bounded per-chip queues, backpressure, one tick loop.

The ingestor between the per-chip trace feeds and their monitor
sessions.  Each chip owns one bounded FIFO; every tick the scheduler
produces one arrival batch per chip, round-robin across the fleet, and
drains the queues through the sessions.  The loop is single-threaded
and deterministic.  When a queue is full the **backpressure policy**
decides, explicitly:

* ``"block"`` — the producer waits for the consumer: the oldest batch
  is drained through its session before the new one is admitted.
  Nothing is ever lost.
* ``"drop_oldest"`` — the oldest queued batch is evicted to admit the
  new one.  Every eviction is counted per chip, journalled as a
  ``drop`` event with the lost sequence numbers, and surfaced in the
  fleet report — **never silent**.

Early stop: :meth:`FleetScheduler.run` with ``max_ticks`` stops at a
tick boundary and journals an ``early_stop`` event; a later
:meth:`~FleetScheduler.run` on the same scheduler and feeds continues
the stream where it stopped — same alarms, same journal tail as an
uninterrupted run.

Every tick's arrivals drain through one :class:`~repro.framework.
batched.BatchedFleetMonitor`, built with the scheduler, which decides
from the fleet whether to score it densely or session by session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.fleet.feed import TraceFeed, WindowBatch
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.fleet.session import MonitorSession
from repro.framework.batched import BatchedFleetMonitor
from repro.framework.monitor import AlarmEvent

#: Supported backpressure policies.
POLICIES = ("block", "drop_oldest")


@dataclass
class ChipReport:
    """One chip's fleet-run outcome."""

    chip_id: str
    windows_delivered: int
    windows_ingested: int
    #: Windows the link lost (feed fault injection) — explicit counts.
    feed_dropped: int
    feed_duplicated: int
    feed_reordered: int
    #: Batches/windows evicted by the ``drop_oldest`` queue policy.
    queue_dropped_batches: int
    queue_dropped_windows: int
    #: Sequence anomalies the session observed.
    gaps: int
    out_of_order: int
    #: p99 latency of this chip's scoring stage (features + separation)
    #: in seconds.  Under batched scoring every chip in a tick observes
    #: the shared tick duration.
    scoring_p99_s: float = 0.0
    alarms: list[AlarmEvent] = field(default_factory=list)

    @property
    def time_alarm(self) -> bool:
        return bool(self.alarms)

    @property
    def first_alarm_window(self) -> int | None:
        return self.alarms[0].window_index if self.alarms else None


@dataclass
class FleetResult:
    """Outcome of one scheduler run."""

    reports: dict[str, ChipReport]
    complete: bool
    ticks: int
    elapsed_seconds: float
    metrics: dict
    journal_path: str | None = None

    @property
    def windows_ingested(self) -> int:
        return sum(r.windows_ingested for r in self.reports.values())

    @property
    def throughput(self) -> float:
        """Ingestion rate over the whole fleet [windows/s]."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.windows_ingested / self.elapsed_seconds

    def format(self) -> str:
        lines = [
            f"fleet run: {len(self.reports)} chips, "
            f"{self.windows_ingested} windows in "
            f"{self.elapsed_seconds:.2f}s "
            f"({self.throughput:.0f} windows/s)"
            + ("" if self.complete else "  [PARTIAL — stopped early]")
        ]
        for chip_id, r in self.reports.items():
            status = (
                f"ALARM @ window {r.first_alarm_window}"
                if r.time_alarm
                else "quiet"
            )
            lines.append(
                f"  {chip_id:<9} {status:<22} "
                f"ingested {r.windows_ingested}/{r.windows_delivered}, "
                f"link drops {r.feed_dropped}, dup {r.feed_duplicated}, "
                f"reordered {r.feed_reordered}, "
                f"queue drops {r.queue_dropped_windows}, "
                f"gaps {r.gaps}, ooo {r.out_of_order}, "
                f"score p99 {r.scoring_p99_s * 1e6:.0f}us"
            )
        return "\n".join(lines)


class FleetScheduler:
    """Streams many chips' feeds through their monitor sessions."""

    def __init__(
        self,
        sessions: list[MonitorSession],
        queue_depth: int = 8,
        policy: str = "block",
        workers: int = 1,
        consume_every: int = 1,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
        scoring: str | None = None,
    ) -> None:
        """
        Parameters
        ----------
        sessions:
            One per chip; their order fixes the round-robin order.
        queue_depth:
            Bounded per-chip queue capacity, in batches (>= 1).
        policy:
            Backpressure policy, ``"block"`` or ``"drop_oldest"``.
        workers:
            Fixed at ``1``; any other value is rejected.  The keyword
            stays only because ``benchmarks/pipeline/workloads.py``
            still passes it.
        consume_every:
            Consumer pacing: sessions drain one batch per chip every
            *consume_every* production ticks.  ``1`` keeps consumers
            in lock-step with producers; larger values emulate a slow
            consumer and exercise the backpressure policy
            deterministically.
        journal, metrics:
            Shared sinks; default to the first session's.
        scoring:
            ``"batched"`` or ``None``; any other value is rejected.
            The keyword stays only because
            ``benchmarks/pipeline/workloads.py`` still passes it.
        """
        if not sessions:
            raise ExperimentError("fleet needs at least one session")
        ids = [s.chip_id for s in sessions]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"chip ids must be unique, got {ids}")
        if queue_depth < 1:
            raise ExperimentError(
                f"queue depth must be >= 1, got {queue_depth}"
            )
        if policy not in POLICIES:
            raise ExperimentError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        if type(workers) is not int or workers != 1:
            raise ExperimentError(
                f"workers must be 1, got {workers!r}: the threaded "
                "ingestor was removed and every fleet run takes the "
                "single-threaded tick loop"
            )
        if consume_every < 1:
            raise ExperimentError(
                f"consume_every must be >= 1, got {consume_every}"
            )
        if scoring not in (None, "batched"):
            raise ExperimentError(
                f"scoring must be 'batched' or None, got {scoring!r}: "
                "the scoring engine follows from the fleet"
            )
        self.sessions = {s.chip_id: s for s in sessions}
        self.order = ids
        self.queue_depth = queue_depth
        self.policy = policy
        self.consume_every = consume_every
        self.journal = journal if journal is not None else sessions[0].journal
        self.metrics = metrics if metrics is not None else sessions[0].metrics
        # Tick-loop bookkeeping; a second run() continues from it.
        self._tick = 0
        self._produced: dict[str, int] = {c: 0 for c in ids}
        self._pending: dict[str, list[int]] = {c: [] for c in ids}
        self._queue_dropped: dict[str, list[int]] = {c: [] for c in ids}
        #: Scoring engine; its dense arrays hold the window state.
        self._engine = BatchedFleetMonitor(
            [self.sessions[c] for c in ids], metrics=self.metrics
        )
        # Time-to-first-verdict bookkeeping, reset by run().
        self._t0 = 0.0
        self._ttfv_done = False

    # ------------------------------------------------------------------
    def run(
        self, feeds: list[TraceFeed], max_ticks: int | None = None
    ) -> FleetResult:
        """Stream every feed through its session; returns the outcome.

        ``max_ticks`` stops after that many *absolute*
        production/consumption ticks and journals an ``early_stop``
        event; calling :meth:`run` again with the same feeds continues
        from there.
        """
        feed_map = {f.chip_id: f for f in feeds}
        if sorted(feed_map) != sorted(self.order):
            raise ExperimentError(
                f"feeds {sorted(feed_map)} do not match sessions "
                f"{sorted(self.order)}"
            )
        start = time.perf_counter()
        self._t0 = start
        self._ttfv_done = False
        complete = self._run_serial(feed_map, max_ticks)
        elapsed = time.perf_counter() - start
        self.journal.flush()
        return self._result(feed_map, complete, elapsed)

    # ------------------------------------------------------------------
    def _drop_batch(self, chip_id: str, batch_index: int, feed: TraceFeed):
        """Account one queue eviction (drop_oldest) — loudly."""
        self._queue_dropped[chip_id].append(batch_index)
        seqs = feed.seqs_at(batch_index)
        self.metrics.counter("fleet.queue.dropped_windows").inc(len(seqs))
        self.metrics.counter(f"chip.{chip_id}.queue_dropped").inc(len(seqs))
        self.journal.record(
            "drop", chip=chip_id, batch=batch_index, seqs=list(seqs)
        )

    def _note_ttfv(self, alarmed: bool) -> None:
        """Record time-to-first-verdict at the fleet's first alarm.

        Driven by the ingest return values (not the alarm counter), so
        an all-clear run creates no instrument — snapshot parity
        between matrix and producer feeds.
        """
        if alarmed and not self._ttfv_done:
            self._ttfv_done = True
            self.metrics.gauge("fleet.ttfv.seconds").set(
                time.perf_counter() - self._t0
            )

    def _ingest_one(self, chip_id: str, batch: WindowBatch) -> None:
        """Drain one batch through the scoring engine."""
        out = self._engine.ingest_tick([(self.sessions[chip_id], batch)])
        self._note_ttfv(any(out.values()))

    def _run_serial(
        self, feed_map: dict[str, TraceFeed], max_ticks: int | None
    ) -> bool:
        """Deterministic single-threaded produce/consume loop."""
        produced, pending = self._produced, self._pending
        # Per-chip gauge lookups (f-string + registry lock) are hot at
        # fleet scale; the gauge objects themselves are cheap to hold.
        hw_gauges = {
            c: self.metrics.gauge(f"chip.{c}.queue_high_water")
            for c in self.order
        }
        while True:
            live = any(
                produced[c] < feed_map[c].n_batches or pending[c]
                for c in self.order
            )
            if not live:
                return True
            if max_ticks is not None and self._tick >= max_ticks:
                self.journal.record(
                    "early_stop",
                    tick=self._tick,
                    windows={
                        c: self.sessions[c].windows_ingested
                        for c in self.order
                    },
                )
                return False
            self._tick += 1
            for chip_id in self.order:
                feed = feed_map[chip_id]
                i = produced[chip_id]
                if i >= feed.n_batches:
                    continue
                if len(pending[chip_id]) >= self.queue_depth:
                    if self.policy == "drop_oldest":
                        self._drop_batch(
                            chip_id, pending[chip_id].pop(0), feed
                        )
                    else:
                        # "block": the producer waits for the consumer,
                        # which serially means draining the oldest batch
                        # through the session right now.
                        self.metrics.counter("fleet.queue.blocked").inc()
                        oldest = pending[chip_id].pop(0)
                        self._ingest_one(chip_id, feed.batch_at(oldest))
                hw_gauges[chip_id].max(len(pending[chip_id]) + 1)
                pending[chip_id].append(i)
                produced[chip_id] = i + 1
            if self._tick % self.consume_every == 0:
                drained = [
                    (chip_id, feed_map[chip_id].batch_at(
                        pending[chip_id].pop(0)
                    ))
                    for chip_id in self.order
                    if pending[chip_id]
                ]
                # One scoring tick across every chip that has work.
                out = self._engine.ingest_tick(
                    [(self.sessions[c], b) for c, b in drained]
                )
                self._note_ttfv(any(out.values()))

    # ------------------------------------------------------------------
    def _chip_report(self, chip_id: str, feed: TraceFeed) -> ChipReport:
        session = self.sessions[chip_id]
        dropped_batches = self._queue_dropped[chip_id]
        return ChipReport(
            chip_id=chip_id,
            windows_delivered=feed.n_delivered,
            windows_ingested=session.windows_ingested,
            feed_dropped=len(feed.dropped_seqs),
            feed_duplicated=feed.duplicated,
            feed_reordered=feed.reordered,
            queue_dropped_batches=len(dropped_batches),
            queue_dropped_windows=sum(
                len(feed.seqs_at(i)) for i in dropped_batches
            ),
            gaps=session.gaps,
            out_of_order=session.out_of_order,
            scoring_p99_s=self.metrics.histogram(
                f"chip.{chip_id}.scoring.seconds"
            ).percentile(99.0),
            alarms=list(session.monitor.alarms),
        )

    def _result(
        self,
        feed_map: dict[str, TraceFeed],
        complete: bool,
        elapsed: float,
    ) -> FleetResult:
        reports = {
            chip_id: self._chip_report(chip_id, feed_map[chip_id])
            for chip_id in self.order
        }
        return FleetResult(
            reports=reports,
            complete=complete,
            ticks=self._tick,
            elapsed_seconds=elapsed,
            metrics=self.metrics.snapshot(),
            journal_path=(
                str(self.journal.path) if self.journal.path else None
            ),
        )
