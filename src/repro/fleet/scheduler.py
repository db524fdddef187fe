"""Fleet scheduler: bounded per-chip queues, backpressure, fan-out.

The ingestor between the per-chip trace feeds and their monitor
sessions.  Each chip owns one bounded FIFO; the scheduler produces
arrival batches round-robin across the fleet and drains each queue
through its session.  When a queue is full the **backpressure policy**
decides, explicitly:

* ``"block"`` — the producer waits for the consumer (serially: the
  oldest batch is drained through the session before the new one is
  admitted).  Nothing is ever lost.
* ``"drop_oldest"`` — the oldest queued batch is evicted to admit the
  new one.  Every eviction is counted per chip, journalled as a
  ``drop`` event with the lost sequence numbers, and surfaced in the
  fleet report — **never silent**.

Worker fan-out follows the :mod:`repro.experiments.parallel`
conventions: the effective worker count comes from
:func:`~repro.experiments.parallel.resolve_workers` (argument →
``REPRO_WORKERS`` → CPU count), is clamped to the chip count, and
auto-degrades to the deterministic serial loop on single-CPU hosts
(``REPRO_FORCE_POOL=1`` overrides, as for the campaign pool).  Workers
are threads, not processes — sessions are stateful and ingestion is
NumPy-bound, so the GIL is released where it matters; each worker owns
a fixed partition of the chips, which keeps per-chip ordering exact
and makes the threaded run alarm-identical to the serial one under the
``block`` policy.

Checkpoint/resume (serial mode): :meth:`FleetScheduler.run` with
``max_ticks`` stops at a tick boundary, :meth:`state_dict` captures
the sessions plus the production/queue bookkeeping, and
:meth:`from_state` + a second :meth:`run` over identically rebuilt
feeds continues **bit-identically** — same alarms, same journal tail.

Scoring runs in one of two modes (``REPRO_FLEET_SCORING`` or the
``scoring`` argument): ``batched`` (default) drains each tick's
arrivals through one :class:`~repro.framework.batched.
BatchedFleetMonitor` — one feature-extraction call and one row-norm
for the whole fleet — while ``sequential`` keeps the per-session
Python loop.  The two modes are bit-identical (alarms, journal,
checkpoints); batched is simply faster the more chips share a tick.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.config import FLEET_SCORING_MODES, active_config
from repro.errors import ExperimentError
from repro.experiments.parallel import resolve_workers
from repro.fleet.feed import TraceFeed, WindowBatch
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.fleet.session import MonitorSession
from repro.framework.batched import BatchedFleetMonitor
from repro.framework.monitor import AlarmEvent

#: Supported backpressure policies.
POLICIES = ("block", "drop_oldest")


class BoundedQueue:
    """Thread-safe bounded FIFO with an explicit overflow policy."""

    def __init__(self, depth: int, policy: str) -> None:
        if depth < 1:
            raise ExperimentError(f"queue depth must be >= 1, got {depth}")
        if policy not in POLICIES:
            raise ExperimentError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        self.depth = depth
        self.policy = policy
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.dropped: list[WindowBatch] = []
        self.high_water = 0

    def put(self, item: WindowBatch) -> WindowBatch | None:
        """Enqueue; returns the batch evicted by ``drop_oldest`` (if any).

        Under the ``block`` policy this waits until a consumer frees a
        slot.
        """
        with self._cond:
            if self.policy == "block":
                while len(self._items) >= self.depth:
                    self._cond.wait()
                evicted = None
            else:
                evicted = (
                    self._items.popleft()
                    if len(self._items) >= self.depth
                    else None
                )
                if evicted is not None:
                    self.dropped.append(evicted)
            self._items.append(item)
            self.high_water = max(self.high_water, len(self._items))
            self._cond.notify_all()
            return evicted

    def get_nowait(self) -> WindowBatch | None:
        with self._cond:
            if not self._items:
                return None
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def finished(self) -> bool:
        """Closed and fully drained."""
        with self._cond:
            return self._closed and not self._items

    def __len__(self) -> int:
        return len(self._items)


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
            + ("" if self.complete else "  [PARTIAL — checkpointed]")
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
        workers: int | None = None,
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
            Bounded per-chip queue capacity, in batches.
        policy:
            Backpressure policy, ``"block"`` or ``"drop_oldest"``.
        workers:
            Ingestion fan-out; resolved through the
            :mod:`repro.experiments.parallel` conventions.  ``1``
            forces the deterministic serial loop (required for
            checkpointing).
        consume_every:
            Serial-mode consumer pacing: sessions drain one batch per
            chip every *consume_every* production ticks.  ``1`` keeps
            consumers in lock-step with producers; larger values
            emulate a slow consumer and exercise the backpressure
            policy deterministically.  Ignored by the threaded path.
        journal, metrics:
            Shared sinks; default to the first session's.
        scoring:
            ``"batched"`` or ``"sequential"``; ``None`` (default)
            resolves ``REPRO_FLEET_SCORING`` through the active
            :class:`~repro.config.ReproConfig` at :meth:`run` time.
            Both modes raise bit-identical alarms.
        """
        if not sessions:
            raise ExperimentError("fleet needs at least one session")
        ids = [s.chip_id for s in sessions]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"chip ids must be unique, got {ids}")
        if policy not in POLICIES:
            raise ExperimentError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        if consume_every < 1:
            raise ExperimentError(
                f"consume_every must be >= 1, got {consume_every}"
            )
        if scoring is not None and scoring not in FLEET_SCORING_MODES:
            raise ExperimentError(
                f"unknown fleet scoring mode {scoring!r}; "
                f"expected one of {FLEET_SCORING_MODES}"
            )
        self.scoring = scoring
        self.sessions = {s.chip_id: s for s in sessions}
        self.order = ids
        self.queue_depth = queue_depth
        self.policy = policy
        self.workers = workers
        self.consume_every = consume_every
        self.journal = journal if journal is not None else sessions[0].journal
        self.metrics = metrics if metrics is not None else sessions[0].metrics
        # Serial-mode bookkeeping (also the checkpointable state).
        self._tick = 0
        self._produced: dict[str, int] = {c: 0 for c in ids}
        self._pending: dict[str, list[int]] = {c: [] for c in ids}
        self._queue_dropped: dict[str, list[int]] = {c: [] for c in ids}
        #: Serial-mode batched scoring engine (built per run).
        self._engine: BatchedFleetMonitor | None = None
        # Time-to-first-verdict bookkeeping + (streaming ingest) the
        # live producer behind the feeds, both bound by run().
        self._t0 = 0.0
        self._ttfv_done = False
        self._producer = None

    # ------------------------------------------------------------------
    def scoring_mode(self) -> str:
        """The effective scoring mode (argument > env > default)."""
        if self.scoring is not None:
            return self.scoring
        return active_config().fleet_scoring
    def _effective_workers(self) -> int:
        # Single-CPU degrade mirrors run_campaigns: decided once by
        # ReproConfig (config override > REPRO_FORCE_POOL).
        n = min(resolve_workers(self.workers), len(self.order))
        if n > 1 and not active_config().pool_allowed:
            n = 1
        return n

    def run(
        self, feeds: list[TraceFeed], max_ticks: int | None = None
    ) -> FleetResult:
        """Stream every feed through its session; returns the outcome.

        ``max_ticks`` (serial mode only) stops after that many
        *absolute* production/consumption ticks, journals a
        ``checkpoint`` event, and leaves the scheduler resumable via
        :meth:`state_dict`.
        """
        feed_map = {f.chip_id: f for f in feeds}
        if sorted(feed_map) != sorted(self.order):
            raise ExperimentError(
                f"feeds {sorted(feed_map)} do not match sessions "
                f"{sorted(self.order)}"
            )
        n_workers = self._effective_workers()
        mode = self.scoring_mode()
        detector = self.sessions[self.order[0]].evaluator.detector
        if mode == "batched" and not getattr(
            detector, "supports_batched", True
        ):
            # Registry plugins whose scoring is not expressible as the
            # dense fingerprint-distance engine (population-relative
            # detectors, spectral features) take the sequential path;
            # the fallback is counted, never silent.
            mode = "sequential"
            self.metrics.counter("fleet.scoring.batched_fallback").inc()
        # Duck-typed on purpose: ProducerTraceSource is the only
        # source exposing .producer, and checking structurally keeps
        # the scheduler import-independent of the streaming layer.
        self._producer = next(
            (
                f.source.producer
                for f in feeds
                if hasattr(f.source, "producer")
            ),
            None,
        )
        start = time.perf_counter()
        self._t0 = start
        self._ttfv_done = False
        if n_workers > 1:
            if max_ticks is not None:
                raise ExperimentError(
                    "checkpointing (max_ticks) requires workers=1; the "
                    "threaded ingestors interleave nondeterministically"
                )
            self._run_threaded(feed_map, n_workers, mode)
            complete = True
        else:
            if mode == "batched":
                self._engine = BatchedFleetMonitor(
                    [self.sessions[c] for c in self.order],
                    metrics=self.metrics,
                )
            try:
                complete = self._run_serial(feed_map, max_ticks)
            finally:
                if self._engine is not None:
                    self._engine.sync_to_sessions()
                    self._engine = None
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
        an all-clear run creates no instrument — snapshot parity with
        pre-TTFV checkpoints and with the replay ingest.
        """
        if alarmed and not self._ttfv_done:
            self._ttfv_done = True
            self.metrics.gauge("fleet.ttfv.seconds").set(
                time.perf_counter() - self._t0
            )

    def _ingest_one(self, chip_id: str, batch: WindowBatch) -> None:
        """Drain one batch through the active scoring engine."""
        if self._engine is not None:
            out = self._engine.ingest_tick([(self.sessions[chip_id], batch)])
            self._note_ttfv(any(out.values()))
        else:
            self._note_ttfv(bool(self.sessions[chip_id].ingest(batch)))

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
                    "checkpoint",
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
                if self._engine is not None:
                    # One batched tick across every chip that has work.
                    out = self._engine.ingest_tick(
                        [(self.sessions[c], b) for c, b in drained]
                    )
                    self._note_ttfv(any(out.values()))
                else:
                    for chip_id, batch in drained:
                        self._note_ttfv(
                            bool(self.sessions[chip_id].ingest(batch))
                        )

    def _run_threaded(
        self, feed_map: dict[str, TraceFeed], n_workers: int, mode: str
    ) -> None:
        """Producer (main thread) + per-worker chip partitions."""
        queues = {
            c: BoundedQueue(self.queue_depth, self.policy)
            for c in self.order
        }
        errors: list[BaseException] = []

        def consume(chip_ids: list[str]) -> None:
            # Each worker owns a disjoint chip partition, so a
            # per-worker batched engine shares no session state with
            # its siblings; one engine tick scores every chip in the
            # partition that had an arrival this sweep.
            engine = None
            if mode == "batched":
                engine = BatchedFleetMonitor(
                    [self.sessions[c] for c in chip_ids],
                    metrics=self.metrics,
                )
            active = set(chip_ids)
            try:
                while active:
                    progress = False
                    arrivals: list[tuple[MonitorSession, WindowBatch]] = []
                    for chip_id in list(active):
                        q = queues[chip_id]
                        item = q.get_nowait()
                        if item is None:
                            if q.finished:
                                active.discard(chip_id)
                            continue
                        if engine is not None:
                            arrivals.append((self.sessions[chip_id], item))
                        else:
                            self._note_ttfv(
                                bool(self.sessions[chip_id].ingest(item))
                            )
                        progress = True
                    if arrivals:
                        out = engine.ingest_tick(arrivals)
                        self._note_ttfv(any(out.values()))
                    if not progress and active:
                        time.sleep(1e-4)
                if engine is not None:
                    engine.sync_to_sessions()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        partitions: list[list[str]] = [[] for _ in range(n_workers)]
        for i, chip_id in enumerate(self.order):
            partitions[i % n_workers].append(chip_id)
        threads = [
            threading.Thread(target=consume, args=(part,), daemon=True)
            for part in partitions
            if part
        ]
        for t in threads:
            t.start()
        try:
            exhausted = False
            while not exhausted:
                exhausted = True
                for chip_id in self.order:
                    feed = feed_map[chip_id]
                    i = self._produced[chip_id]
                    if i >= feed.n_batches:
                        continue
                    exhausted = False
                    evicted = queues[chip_id].put(feed.batch_at(i))
                    if evicted is not None:
                        # drop_oldest eviction under contention.
                        idx = self._batch_index_of(feed, evicted)
                        self._drop_batch(chip_id, idx, feed)
                    self._produced[chip_id] = i + 1
        finally:
            for q in queues.values():
                q.close()
            for t in threads:
                t.join()
        for chip_id, q in queues.items():
            self.metrics.gauge(f"chip.{chip_id}.queue_high_water").max(
                q.high_water
            )
        if errors:
            raise errors[0]

    @staticmethod
    def _batch_index_of(feed: TraceFeed, batch: WindowBatch) -> int:
        """Recover a batch's index from its position in the schedule."""
        # Batches are contiguous slices of the delivery schedule; the
        # first seq's slice offset identifies the batch uniquely.
        for i in range(feed.n_batches):
            if feed.delivered_seqs[i * feed.batch: (i + 1) * feed.batch] \
                    == batch.seqs:
                return i
        raise ExperimentError("batch does not belong to this feed")

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

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint of a (partially run) serial fleet, JSON-encodable.

        Captures every session's monitor state plus the scheduler's
        production/queue bookkeeping.  Queued-but-not-yet-ingested
        batches are stored as feed batch *indices* — feeds are
        deterministic replays, so the queue contents rebuild exactly.
        The captured state is scoring-mode agnostic: a batched run
        syncs its dense engine state back into the sessions, so either
        mode resumes either mode's checkpoint bit-identically.
        """
        if self._engine is not None:
            self._engine.sync_to_sessions()
        state = {
            "tick": self._tick,
            "queue_depth": self.queue_depth,
            "policy": self.policy,
            "consume_every": self.consume_every,
            "order": list(self.order),
            "produced": dict(self._produced),
            "pending": {c: list(v) for c, v in self._pending.items()},
            "queue_dropped": {
                c: list(v) for c, v in self._queue_dropped.items()
            },
            "sessions": {
                c: self.sessions[c].state_dict() for c in self.order
            },
        }
        if self._producer is not None:
            # Streaming ingest rides along as an extra key every
            # from_state tolerates: the producer's resume cursor (the
            # serial loop advances watermarks exactly at consumption,
            # so the producer's own view is the right one here).
            state["producer"] = self._producer.state_dict()
        return state

    @classmethod
    def from_state(
        cls,
        state: dict,
        evaluator,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int | None = None,
    ) -> "FleetScheduler":
        """Rebuild a checkpointed fleet against the same evaluator.

        Resuming :meth:`run` with identically rebuilt feeds continues
        the stream bit-identically (same alarms and journal tail as an
        uninterrupted run).
        """
        metrics = metrics if metrics is not None else MetricsRegistry()
        journal = journal if journal is not None else EventJournal()
        sessions = [
            MonitorSession.from_state(
                state["sessions"][chip_id],
                evaluator,
                metrics=metrics,
                journal=journal,
            )
            for chip_id in state["order"]
        ]
        scheduler = cls(
            sessions,
            queue_depth=int(state["queue_depth"]),
            policy=state["policy"],
            workers=workers if workers is not None else 1,
            consume_every=int(state["consume_every"]),
            journal=journal,
            metrics=metrics,
        )
        scheduler._tick = int(state["tick"])
        scheduler._produced = {
            c: int(v) for c, v in state["produced"].items()
        }
        scheduler._pending = {
            c: [int(i) for i in v] for c, v in state["pending"].items()
        }
        scheduler._queue_dropped = {
            c: [int(i) for i in v]
            for c, v in state["queue_dropped"].items()
        }
        return scheduler
