"""Batched fleet scoring: every chip's sliding window as dense arrays.

Per-session fleet scoring handles one chip at a time — a Python loop
per chip per window through :meth:`RuntimeMonitor._observe_feature`.
At fleet scale the per-window work is a handful of tiny NumPy calls,
so interpreter overhead dominates and throughput is flat in the chip
count.  :class:`BatchedFleetMonitor` turns one scheduler tick over the
whole fleet into a fixed number of vectorised operations:

* a ``(chips, window, features)`` **ring buffer** replaces the per-chip
  deques — each chip's write position is ``count % window``;
* a ``(chips, features)`` **running-sum matrix** replaces the per-chip
  running sums — eviction and insertion are one fused
  ``(sums - oldest) + rows`` over every chip that received a window;
* per-chip **streak / count / threshold vectors** carry the hysteresis
  and the ``REFRESH_EVERY`` drift-refresh schedule, applied with masks.

Feature extraction for the whole arrival tick happens in one
``detector.features`` call (row-wise normalisation is independent
across traces), and every chip's separation comes out of one row-norm
over the mean-feature matrix.

**Bit-identity.**  The engine performs, per chip, exactly the float64
operation sequence of :meth:`RuntimeMonitor._observe_feature`:
elementwise sum updates are order-identical (the ring slot of a
not-yet-full chip holds ``0.0`` and ``x - 0.0`` is bitwise ``x``), the
drift refresh re-sums the ordered window with the same contiguous
``add.reduce``, and separations go through the shared
:func:`~repro.framework.monitor.row_separations` reduction.  Alarms —
indices, separations, thresholds, messages — are therefore bitwise
equal to per-session scoring over the same stream, and so is every
journal byte.

**Engine selection.**  The fleet scheduler scores through this engine,
which picks its path once, at construction: dense when the sessions
share one detector object that declares ``supports_batched``, has no
fitted PCA projection (a matmul is not row-blocking invariant) and
one sliding-window length; per session otherwise (:meth:`ingest_tick`
then hands each batch to :meth:`MonitorSession.ingest`, in pair
order).  The fallback is counted once on
``fleet.scoring.batched_fallback``.

Under dense scoring the window state lives only in the dense arrays;
the sessions' :class:`RuntimeMonitor` objects receive the alarms and
the stream accounting, not the windows.  The engine starts every chip
at the beginning of its stream.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import AnalysisError
from repro.framework.monitor import AlarmEvent, RuntimeMonitor, row_separations
from repro.obs import active_metrics
from repro.obs.metrics import MetricsRegistry


class BatchedFleetMonitor:
    """Scores many chips' monitor sessions with dense array operations.

    Parameters
    ----------
    sessions:
        The :class:`~repro.fleet.session.MonitorSession` objects to
        score (one per chip), at the start of their streams.
        Thresholds and confirmation counts may differ per chip.
    metrics:
        Registry for stage timings and scoring counters; defaults to
        the first session's.
    """

    def __init__(self, sessions, metrics: MetricsRegistry | None = None):
        sessions = list(sessions)
        if not sessions:
            raise AnalysisError("batched monitor needs at least one session")
        ids = [s.chip_id for s in sessions]
        if len(set(ids)) != len(ids):
            raise AnalysisError(f"chip ids must be unique, got {ids}")
        self.sessions = sessions
        self.detector = sessions[0].evaluator.detector
        self.metrics = metrics if metrics is not None else sessions[0].metrics
        self.window = sessions[0].monitor.window
        #: Whether the fleet is scored densely (see the module notes);
        #: ``False`` scores every batch through its session.
        self.dense = (
            getattr(self.detector, "supports_batched", True)
            and not self.detector.uses_pca
            and all(s.evaluator.detector is self.detector for s in sessions)
            and all(s.monitor.window == self.window for s in sessions)
        )
        if not self.dense:
            self.metrics.counter("fleet.scoring.batched_fallback").inc()
            return
        self._fingerprint = np.asarray(
            self.detector.fingerprint, dtype=np.float64
        )
        n_chips = len(sessions)
        n_feat = self._fingerprint.shape[0]
        self._index = {chip_id: k for k, chip_id in enumerate(ids)}
        # Slot-major ring layout: one tick's slot (``ring[pos]``) is a
        # contiguous ``(chips, features)`` block, so the steady-state
        # eviction/insertion touches one cache-friendly slab instead of
        # strided rows scattered across the whole buffer.
        self._ring = np.zeros((self.window, n_chips, n_feat))
        self._sums = np.zeros((n_chips, n_feat))
        self._counts = np.zeros(n_chips, dtype=np.int64)
        self._streaks = np.zeros(n_chips, dtype=np.int64)
        self._thresholds = np.array(
            [s.monitor.threshold for s in sessions], dtype=np.float64
        )
        self._confirms = np.array(
            [s.monitor.confirm for s in sessions], dtype=np.int64
        )
        # Hot-loop instrument cache: registry lookups (f-string + lock)
        # are measurable at fleet scale, the instruments are not.
        self._scoring_hists = {
            s.chip_id: s.metrics.histogram(
                f"chip.{s.chip_id}.scoring.seconds"
            )
            for s in sessions
        }
        self._c_batched = self.metrics.counter("fleet.scoring.batched")
        self._h_features = self.metrics.histogram("stage.features.seconds")
        self._h_separation = self.metrics.histogram(
            "stage.separation.seconds"
        )

    # ------------------------------------------------------------------
    def _extract_features(self, pairs) -> np.ndarray:
        """One feature-extraction call for the whole arrival tick."""
        if len(pairs) == 1:
            return self.detector.features(pairs[0][1].traces)
        return self.detector.features(
            np.concatenate([b.traces for _, b in pairs], axis=0)
        )

    def _ring_sum(self, k: int, count: int) -> np.ndarray:
        """Exact re-sum of chip *k*'s ordered window (drift control)."""
        if count >= self.window:
            pos = count % self.window
            ordered = np.roll(self._ring[:, k], -pos, axis=0)
        else:
            ordered = self._ring[:count, k]
        return ordered.sum(axis=0)

    def ingest_tick(self, pairs) -> dict[str, list[AlarmEvent]]:
        """Score one scheduler tick's arrivals across every chip at once.

        *pairs* is a sequence of ``(session, WindowBatch)`` tuples —
        at most one batch per chip per tick.  Returns the alarms raised
        this tick, keyed by chip id.  Stream accounting is computed for
        the whole tick in one vectorised pass and landed per session
        (:meth:`~repro.fleet.session.MonitorSession._apply_accounting`,
        then ``_journal_alarms``) in pair order — the exact counter and
        journal stream per-session ingestion produces in the same order.
        A fleet the engine does not score densely hands each batch to
        :meth:`MonitorSession.ingest` instead, in pair order.
        """
        if not self.dense:
            return {
                session.chip_id: session.ingest(batch)
                for session, batch in pairs
            }
        index = self._index
        live: list = []
        kept_idx: list[int] = []
        kept_lens: list[int] = []
        seen = set()
        uniform_len = True
        for session, batch in pairs:
            chip_id = session.chip_id
            if batch.chip_id != chip_id:
                raise AnalysisError(
                    f"session {chip_id!r} paired with batch for "
                    f"{batch.chip_id!r}"
                )
            if chip_id in seen or chip_id not in index:
                raise AnalysisError(
                    f"chip {chip_id!r} must appear exactly once "
                    "per tick and belong to this engine"
                )
            seen.add(chip_id)
            n = len(batch.seqs)
            if n == 0:
                continue
            if kept_lens and n != kept_lens[0]:
                uniform_len = False
            live.append((session, batch))
            kept_idx.append(index[chip_id])
            kept_lens.append(n)
        pairs = live
        if not pairs:
            return {}
        idx = np.array(kept_idx, dtype=np.int64)
        events: list[list[AlarmEvent]] = [[] for _ in pairs]
        counts = self._counts[idx]
        length = kept_lens[0]
        uniform = uniform_len and bool((counts == counts[0]).all())
        start = time.perf_counter()
        if uniform:
            steps, t_feat = self._extract_step_major(pairs, length)
            self._score_uniform(steps, idx, length, int(counts[0]), events)
        else:
            feats = self._extract_features(pairs)
            t_feat = time.perf_counter()
            self._h_features.observe(t_feat - start)
            lens = np.array(kept_lens, dtype=np.int64)
            self._score_ragged(feats, idx, lens, events)
        elapsed = time.perf_counter() - start
        self._h_separation.observe(time.perf_counter() - t_feat)
        windows_scored = sum(kept_lens)
        self._c_batched.inc(windows_scored)
        shared = active_metrics()
        if shared is not self.metrics:
            shared.counter("fleet.scoring.batched").inc(windows_scored)
        accounting = self._account_tick(pairs, kept_lens, uniform_len)
        out: dict[str, list[AlarmEvent]] = {}
        for i, ((session, batch), raised) in enumerate(zip(pairs, events)):
            self._scoring_hists[session.chip_id].observe(elapsed)
            n_gaps, n_ooo, last_seq = accounting[i]
            session._apply_accounting(kept_lens[i], n_gaps, n_ooo, last_seq)
            session._journal_alarms(batch, raised)
            out[session.chip_id] = raised
        return out

    def _extract_step_major(self, pairs, length):
        """Features for a uniform tick, laid out step-major.

        Row-wise normalisation is order-independent across rows, so
        extracting the arrival matrix in step-major order (step 0 of
        every chip first) yields the same per-row values while letting
        every scoring step read one contiguous ``(chips, features)``
        slab with no transpose.
        """
        start = time.perf_counter()
        n = len(pairs)
        if n > 1:
            stacked = np.stack([b.traces for _, b in pairs], axis=1)
            feats = self.detector.features(
                stacked.reshape(n * length, stacked.shape[2])
            )
            steps = feats.reshape(length, n, feats.shape[1])
        else:
            feats = self._extract_features(pairs)
            steps = np.ascontiguousarray(
                feats.reshape(n, length, feats.shape[1]).transpose(1, 0, 2)
            )
        t_feat = time.perf_counter()
        self._h_features.observe(t_feat - start)
        return steps, t_feat

    def _emit_alarm(self, chip, pair_pos, count, sep, threshold, events):
        monitor = self.sessions[chip].monitor
        event = AlarmEvent(
            window_index=count,
            separation=sep,
            threshold=threshold,
            message=(
                f"EM fingerprint left the golden envelope "
                f"({sep:.3f} > {threshold:.3f}) for "
                f"{monitor.confirm} consecutive windows"
            ),
        )
        monitor.alarms.append(event)
        events[pair_pos].append(event)

    def _score_uniform(self, steps, idx, length, count0, events) -> None:
        """Steady-state fast path: one batch length, one window count.

        *steps* is the tick's features in step-major layout —
        ``(length, chips, features)``, each step one contiguous slab.
        When every chip in the tick delivered the same number of
        windows and sits at the same stream position (the healthy-fleet
        steady state), the ring position, the drift-refresh schedule
        and the warm-up test collapse to scalars; and when the tick
        covers the whole fleet in construction order the gather/scatter
        disappears too — the dense arrays are updated in place.  The
        float64 operation sequence per chip is unchanged, so results
        stay bitwise equal to the ragged path and to sequential runs.
        """
        window = self.window
        refresh_every = RuntimeMonitor.REFRESH_EVERY
        n = idx.shape[0]
        full = n == len(self.sessions) and np.array_equal(
            idx, np.arange(n, dtype=idx.dtype)
        )
        if full:
            sums, streaks = self._sums, self._streaks
            thresholds, confirms = self._thresholds, self._confirms
        else:
            sums = self._sums[idx]
            streaks = self._streaks[idx]
            thresholds = self._thresholds[idx]
            confirms = self._confirms[idx]
        ring = self._ring
        # Per-tick scratch (means workspace + separations), reused by
        # every ready step in the loop below.
        mbuf = np.empty_like(sums)
        sbuf = np.empty(n)
        for j in range(length):
            count = count0 + j + 1
            pos = (count0 + j) % window
            rows = steps[j]
            # Ring slots of not-yet-full chips hold 0.0, and
            # ``x - 0.0`` is bitwise ``x`` — no mask needed for the
            # eviction term.
            oldest = ring[pos] if full else ring[pos, idx]
            np.subtract(sums, oldest, out=sums)
            np.add(sums, rows, out=sums)
            if full:
                ring[pos] = rows
            else:
                ring[pos, idx] = rows
            if count % refresh_every == 0:
                for k in idx:
                    self._sums[k] = self._ring_sum(int(k), count)
                if not full:
                    sums = self._sums[idx]
            if count < window:
                continue
            np.divide(sums, window, out=mbuf)
            seps = row_separations(
                mbuf, self._fingerprint, work=mbuf, out=sbuf
            )
            over = seps > thresholds
            streaks[:] = np.where(over, streaks + 1, 0)
            fired = streaks == confirms
            if fired.any():
                for k in np.flatnonzero(fired):
                    self._emit_alarm(
                        int(idx[k]), int(k), count,
                        float(seps[k]), float(thresholds[k]), events,
                    )
        if full:
            self._counts += length
        else:
            self._sums[idx] = sums
            self._streaks[idx] = streaks
            self._counts[idx] += length

    def _score_ragged(self, feats, idx, lens, events) -> None:
        """General path: per-chip batch lengths / stream positions."""
        offsets = np.zeros(lens.shape[0], dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        refresh_every = RuntimeMonitor.REFRESH_EVERY
        window = self.window
        for j in range(int(lens.max())):
            live = lens > j
            chips = idx[live]
            where = np.flatnonzero(live)
            rows = feats[offsets[live] + j]
            pos = self._counts[chips] % window
            # See _score_uniform: ``x - 0.0`` is bitwise ``x``.
            oldest = self._ring[pos, chips]
            self._sums[chips] = (self._sums[chips] - oldest) + rows
            self._ring[pos, chips] = rows
            self._counts[chips] += 1
            counts = self._counts[chips]
            stale = counts % refresh_every == 0
            if stale.any():
                for k in chips[stale]:
                    self._sums[int(k)] = self._ring_sum(
                        int(k), int(self._counts[k])
                    )
            ready = counts >= window
            if not ready.any():
                continue
            r_chips = chips[ready]
            r_where = where[ready]
            means = self._sums[r_chips] / window
            seps = row_separations(means, self._fingerprint)
            over = seps > self._thresholds[r_chips]
            streaks = np.where(over, self._streaks[r_chips] + 1, 0)
            self._streaks[r_chips] = streaks
            fired = streaks == self._confirms[r_chips]
            if not fired.any():
                continue
            for k in np.flatnonzero(fired):
                chip = int(r_chips[k])
                self._emit_alarm(
                    chip, int(r_where[k]), int(self._counts[chip]),
                    float(seps[k]), float(self._thresholds[chip]), events,
                )

    def _account_tick(
        self, pairs, lens: list[int], uniform: bool
    ) -> list[tuple[int, int, int]]:
        """Vectorised stream accounting for one whole tick.

        Computes, per pair, the same ``(gaps, out_of_order, last_seq)``
        verdicts :meth:`MonitorSession._account` derives per batch —
        each sequence compared against the running maximum of
        everything before it — in one padded matrix pass instead of a
        NumPy round trip per chip.  *uniform* asserts every entry of
        *lens* is equal, which drops the padding masks entirely.
        """
        n = len(pairs)
        lmax = lens[0] if uniform else max(lens)
        arrays = [b.seq_array for _, b in pairs]
        # Sequence numbers are non-negative, so -1 can flag virgin
        # streams (no high-water mark yet): their first seq becomes
        # the base and is itself exempt from the gap/regression tests.
        bases = np.fromiter(
            (
                -1 if s._last_seq is None else s._last_seq
                for s, _ in pairs
            ),
            dtype=np.int64,
            count=n,
        )
        skip_first = bases < 0
        # Column 0 carries each chip's comparison base (its running
        # high-water mark, or the first seq of a virgin stream).
        if uniform and all(a is not None for a in arrays):
            # No padding: every cell of the matrix is overwritten and
            # every position is a real delivery, so the validity masks
            # vanish.  A virgin stream's first seq equals its own base,
            # so its first comparison always reads "<=" and never ">
            # base + 1" — one subtraction undoes the spurious count.
            seqs = np.empty((n, lmax + 1), dtype=np.int64)
            seqs[:, 1:] = np.concatenate(arrays).reshape(n, lmax)
            body = seqs[:, 1:]
            seqs[:, 0] = np.where(skip_first, body[:, 0], bases)
            prev_max = np.maximum.accumulate(seqs[:, :-1], axis=1)
            gaps = np.count_nonzero(body > prev_max + 1, axis=1)
            ooo = np.count_nonzero(body <= prev_max, axis=1) - skip_first
            last = np.maximum(prev_max[:, -1], body[:, -1])
            return list(zip(gaps.tolist(), ooo.tolist(), last.tolist()))
        lens_arr = np.asarray(lens, dtype=np.int64)
        seqs = np.zeros((n, lmax + 1), dtype=np.int64)
        for i, row in enumerate(arrays):
            if row is None:
                row = np.asarray(pairs[i][1].seqs, dtype=np.int64)
            seqs[i, 1 : 1 + row.shape[0]] = row
        skip = skip_first
        seqs[:, 0] = np.where(skip, seqs[:, 1], bases)
        prev_max = np.maximum.accumulate(seqs[:, :-1], axis=1)
        body = seqs[:, 1:]
        valid = np.arange(lmax)[None, :] < lens_arr[:, None]
        eligible = valid.copy()
        eligible[:, 0] &= ~skip
        gaps = np.count_nonzero((body > prev_max + 1) & eligible, axis=1)
        ooo = np.count_nonzero((body <= prev_max) & eligible, axis=1)
        rows = np.arange(n)
        last = np.maximum(
            prev_max[rows, lens_arr - 1], body[rows, lens_arr - 1]
        )
        return list(zip(gaps.tolist(), ooo.tolist(), last.tolist()))
