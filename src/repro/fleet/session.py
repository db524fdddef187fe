"""Per-chip monitor sessions: instrumented streaming.

A :class:`MonitorSession` wraps one :class:`~repro.framework.monitor.
RuntimeMonitor` for one fleet chip and adds what a long-running
service needs on top of the alarm logic:

* **stage instrumentation** — feature extraction and the separation
  test are timed separately into the shared metrics registry, and
  ingestion/alarm/anomaly counts are surfaced per chip;
* **stream accounting** — sequence-number gaps (missing windows) and
  regressions (out-of-order delivery) are counted, never silently
  absorbed.

:meth:`MonitorSession.ingest` is the per-session scoring path, taken
for fleets the dense engine cannot hold (see
:class:`~repro.framework.batched.BatchedFleetMonitor`).

Sessions default to the **floor-calibrated** alarm threshold
(:func:`floor_scaled_threshold`): the detector's bootstrapped
split-half separation floor, rescaled from half-set means to
W-window means.  Unlike the monitor's default analytic three-sigma
envelope, this keeps the streaming decision consistent with the
one-shot detector's ``separation > separation_floor`` rule — a
windowed mean over a long Trojan-active stream converges to the same
separation the one-shot evaluation measures, so the two verdicts agree
(the property the fleet CLI's consistency check enforces).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.errors import AnalysisError
from repro.fleet.feed import WindowBatch
from repro.obs import active_metrics
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.framework.evaluator import RuntimeTrustEvaluator
from repro.framework.monitor import AlarmEvent, RuntimeMonitor


def floor_scaled_threshold(detector, window: int) -> float:
    """Bootstrap separation floor rescaled to a W-window sliding mean.

    The fitted floor bounds the distance two independent half-set
    means (n/2 golden traces each) reach by sampling alone — an error
    scale of ``d_rms * sqrt(4 / n)``.  A W-window sliding mean
    compared against the full-set fingerprint fluctuates at
    ``d_rms * sqrt(1/W + 1/n)``; the ratio of the two converts the
    bootstrapped (not analytic) envelope to the monitor's geometry:

    ``thr(W) = floor * sqrt((1/W + 1/n) * n / 4)``.

    Registry detectors without golden statistics (the reference-free
    plugins) use their own window-scaled envelope,
    ``streaming_threshold(window)``, instead.
    """
    floor = getattr(detector, "separation_floor", None)
    golden = getattr(detector, "golden_distances", None)
    if floor is None or golden is None:
        if hasattr(detector, "streaming_threshold"):
            return float(detector.streaming_threshold(window))
        raise AnalysisError("detector used before fit()")
    n = golden.shape[0]
    scale = math.sqrt((1.0 / window + 1.0 / n) * n / 4.0)
    return float(floor * scale)


class MonitorSession:
    """One chip's streaming monitor inside a fleet run."""

    def __init__(
        self,
        chip_id: str,
        evaluator: RuntimeTrustEvaluator,
        window: int = 256,
        confirm: int = 3,
        threshold: float | str | None = "floor",
        metrics: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
    ) -> None:
        """
        Parameters
        ----------
        chip_id:
            Fleet-unique stream identity.
        evaluator:
            Trained evaluator shared across the fleet (the golden
            fingerprint is chip-design-wide, not per-instance).
        window, confirm:
            Sliding-window length and alarm hysteresis, as in
            :class:`RuntimeMonitor`.
        threshold:
            ``"floor"`` (default) uses :func:`floor_scaled_threshold`;
            ``None`` keeps the monitor's analytic envelope; a float is
            used verbatim.
        metrics, journal:
            Shared observability sinks; ``None`` creates private ones.
        """
        if threshold == "floor":
            threshold = floor_scaled_threshold(evaluator.detector, window)
        elif isinstance(threshold, str):
            raise AnalysisError(
                f"threshold must be 'floor', None or a float, "
                f"got {threshold!r}"
            )
        self.chip_id = chip_id
        self.evaluator = evaluator
        self.monitor = RuntimeMonitor(
            evaluator, window=window, confirm=confirm, threshold=threshold
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.journal = journal if journal is not None else EventJournal()
        self._last_seq: int | None = None
        self.windows_ingested = 0
        self.gaps = 0
        self.out_of_order = 0
        # Lazily-cached accounting counters (the registry lookup is
        # measurable on the fleet hot path, the instruments are not).
        self._acct_counters: tuple | None = None

    # ------------------------------------------------------------------
    def ingest(self, batch: WindowBatch) -> list[AlarmEvent]:
        """Feed one arrival batch through the monitor.

        Features for the whole batch are extracted in one call (timed
        as ``stage.features.seconds``), then fed row-by-row through the
        O(1) sliding-window separation test (timed as
        ``stage.separation.seconds``).  Every alarm is journalled with
        the chip id and the source sequence number that tripped it.
        """
        if batch.chip_id != self.chip_id:
            raise AnalysisError(
                f"session {self.chip_id!r} fed batch for {batch.chip_id!r}"
            )
        if len(batch) == 0:
            return []
        start = time.perf_counter()
        with self.metrics.time("stage.features.seconds"):
            feats = self.evaluator.detector.features(batch.traces)
        with self.metrics.time("stage.separation.seconds"):
            events = self.monitor.observe_features(feats)
        self.metrics.histogram(
            f"chip.{self.chip_id}.scoring.seconds"
        ).observe(time.perf_counter() - start)
        self.metrics.counter("fleet.scoring.sequential").inc(len(batch))
        shared = active_metrics()
        if shared is not self.metrics:
            shared.counter("fleet.scoring.sequential").inc(len(batch))
        self._finish_batch(batch, events)
        return events

    def _finish_batch(
        self, batch: WindowBatch, events: list[AlarmEvent]
    ) -> None:
        """Post-scoring bookkeeping shared by dense and per-session scoring.

        Stream accounting first, then alarm counters and journal
        records — the exact order :meth:`ingest` always used.  Dense
        scoring (:class:`~repro.framework.batched.BatchedFleetMonitor`)
        computes the accounting verdicts for a whole tick in one
        vectorised pass and lands them through the same
        :meth:`_apply_accounting` / :meth:`_journal_alarms` pair, so
        both paths produce the same counters and the same journal
        stream.
        """
        self._account(batch)
        self._journal_alarms(batch, events)

    def _journal_alarms(
        self, batch: WindowBatch, events: list[AlarmEvent]
    ) -> None:
        """Alarm counters plus journal records for one scored batch."""
        if events:
            self.metrics.counter("fleet.alarms").inc(len(events))
            self.metrics.counter(f"chip.{self.chip_id}.alarms").inc(
                len(events)
            )
            for event in events:
                # The seq that completed the confirmation streak: the
                # event's window_index counts this session's ingested
                # windows, so it maps into this batch.
                offset = event.window_index - (
                    self.windows_ingested - len(batch)
                ) - 1
                seq = batch.seqs[offset] if 0 <= offset < len(batch) else None
                self.journal.record(
                    "alarm",
                    chip=self.chip_id,
                    window_index=event.window_index,
                    seq=seq,
                    separation=event.separation,
                    threshold=event.threshold,
                )

    def _account(self, batch: WindowBatch) -> None:
        # Vectorised sequence accounting: each seq is compared against
        # the running maximum of everything before it (gap if it skips
        # past, out-of-order if it regresses) — same verdicts as the
        # old per-seq Python loop.
        seqs = batch.seq_array
        if seqs is None:
            seqs = np.asarray(batch.seqs, dtype=np.int64)
        if self._last_seq is not None:
            base = self._last_seq
            first = 0
        else:
            base = int(seqs[0])
            first = 1
        prev_max = np.maximum.accumulate(
            np.concatenate(([base], seqs[:-1]))
        )
        n_gaps = int(np.count_nonzero(seqs[first:] > prev_max[first:] + 1))
        n_ooo = int(np.count_nonzero(seqs[first:] <= prev_max[first:]))
        self._apply_accounting(
            len(batch), n_gaps, n_ooo, int(max(prev_max[-1], seqs[-1]))
        )

    def _apply_accounting(
        self, n: int, n_gaps: int, n_ooo: int, last_seq: int
    ) -> None:
        """Land one batch's stream-accounting verdicts.

        Per-session scoring funnels :meth:`_account`'s per-batch
        verdicts through here; dense scoring computes a whole tick's
        verdicts in one vectorised pass
        (:meth:`~repro.framework.batched.BatchedFleetMonitor.
        _account_tick`) and lands them per session — identical counter
        increments and attributes either way.
        """
        self.windows_ingested += n
        counters = self._acct_counters
        if counters is None:
            counters = self._acct_counters = (
                self.metrics.counter("fleet.windows.ingested"),
                self.metrics.counter(f"chip.{self.chip_id}.windows"),
            )
        counters[0].inc(n)
        counters[1].inc(n)
        if n_gaps:
            self.gaps += n_gaps
            self.metrics.counter(f"chip.{self.chip_id}.gaps").inc(n_gaps)
        if n_ooo:
            self.out_of_order += n_ooo
            self.metrics.counter(
                f"chip.{self.chip_id}.out_of_order"
            ).inc(n_ooo)
        self._last_seq = last_seq
