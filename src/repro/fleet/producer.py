"""Live streaming trace production: overlap acquisition with scoring.

Every fleet campaign streams its windows.  A
:class:`StreamingTraceProducer` drives trace generation in tick-sized
**chunks** on a background thread, double-buffered so chunk ``N + 1``
is being generated while chunk ``N`` is being scored, and serves rows
to the per-chip :class:`~repro.fleet.feed.TraceFeed`\\ s through
:class:`ProducerTraceSource`.  The first verdict waits only for the
chunks it references, not for the whole campaign, and peak memory
stays a few chunks.  The feed's delivery schedule, fault injection
and batching are untouched, so a producer-backed feed delivers
exactly what a feed over the concatenated chunk matrices would.

Chunking is part of the campaign's *definition*, not an
implementation detail: batch columns inside one acquisition share
their stimulus/noise streams, so a campaign can only be generated
incrementally at acquisition boundaries.  :class:`ChunkPlan` fixes
those boundaries and :func:`chunk_role` derives one RNG role per
chunk (``fleet/ed/<chip>/chunk<k>``).  Each chunk is a pure function
of ``(seed, role, chunk index)`` — independently regenerable, which is
what lets a freed chunk be regenerated on demand with the same bytes.

Memory stays bounded by the consumption watermarks the feeds push
back (:meth:`TraceFeed.batch_at` → ``source.advance``): a chunk is
freed once every chip's future deliveries lie past it, so the
steady-state footprint is ``prefetch + 1`` chunks, not the campaign.

Observability: ``producer.chunks`` / ``producer.windows`` counters
(deterministic — identical across runs), ``producer.chunk.
seconds`` / ``producer.wait.seconds`` histograms (generation cost and
consumer stall time), and ``producer.buffered_windows`` /
``producer.buffered_chunks`` high-water gauges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.fleet.feed import TraceSource
from repro.obs.metrics import MetricsRegistry

#: Default windows per streamed chunk (full-size fleet configs).  Six
#: chunks over the default 384-window campaign: deep enough a verdict
#: lands while most of the campaign is still ungenerated, coarse
#: enough the per-acquisition warm-up stays amortised.
DEFAULT_CHUNK_WINDOWS = 64

#: Chunks generated ahead of the scoring frontier (double buffering).
DEFAULT_PREFETCH = 2


@dataclass(frozen=True)
class ChunkPlan:
    """Fixed chunk boundaries over a campaign's window stream."""

    n_windows: int
    chunk: int

    def __post_init__(self) -> None:
        if self.n_windows < 1:
            raise ExperimentError(
                f"chunk plan needs >= 1 window, got {self.n_windows}"
            )
        if self.chunk < 1:
            raise ExperimentError(
                f"chunk size must be >= 1, got {self.chunk}"
            )

    @property
    def n_chunks(self) -> int:
        return -(-self.n_windows // self.chunk)

    def bounds(self, index: int) -> tuple[int, int]:
        """Source window range ``[lo, hi)`` of chunk *index*."""
        if not 0 <= index < self.n_chunks:
            raise ExperimentError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )
        lo = index * self.chunk
        return lo, min(lo + self.chunk, self.n_windows)

    def chunk_of(self, seq: int) -> int:
        """The chunk holding source window *seq* (clamped at the end)."""
        return min(max(int(seq), 0) // self.chunk, self.n_chunks - 1)


def chunk_role(base_role: str, plan: ChunkPlan, index: int) -> str:
    """RNG role of one campaign chunk.

    A single-chunk plan keeps the legacy whole-campaign role, so runs
    whose chunk covers the campaign reproduce pre-streaming trace
    bytes exactly; multi-chunk plans suffix the chunk index, making
    every chunk an independent seeded campaign.
    """
    if plan.n_chunks == 1:
        return base_role
    return f"{base_role}/chunk{index}"


class ArrayChunkSource:
    """Chunk source over prematerialised per-chip matrices.

    The test/bench harness: serves chunk slices of arrays that already
    exist, so streaming-pipeline behaviour (ordering, freeing, regeneration)
    can be asserted without paying for chip simulation.
    """

    def __init__(self, streams: dict[str, np.ndarray]) -> None:
        if not streams:
            raise ExperimentError("chunk source needs at least one chip")
        lengths = {v.shape[0] for v in streams.values()}
        if len(lengths) != 1:
            raise ExperimentError(
                f"chip streams must share a window count, got {lengths}"
            )
        self.streams = {k: np.asarray(v) for k, v in streams.items()}

    def generate(self, index: int, lo: int, hi: int) -> dict[str, np.ndarray]:
        return {c: rows[lo:hi] for c, rows in self.streams.items()}


class GroupChunkSource:
    """Acquisition-backed chunk source: one lane-packed pass per chunk.

    Every fleet chip shares one netlist, so a chunk's ``ed`` campaigns
    (one per chip, each under the chunk's RNG role) have one shape and
    :func:`~repro.experiments.campaign.acquire_campaigns` generates
    them in a single ``acquire_group`` pass — one stepping pass and
    one activity fold for the whole fleet.  A streamed chunk is
    therefore byte-identical to a solo ``collect_ed_traces`` campaign
    under the chunk's role.

    *batch* is an upper bound on the lanes per chip: like every ``ed``
    campaign, a chunk of fewer windows runs one lane per window.
    """

    def __init__(
        self,
        chip,
        scenario,
        fleet,
        plan: ChunkPlan,
        receiver: str = "sensor",
        base_role: str = "fleet/ed",
        batch: int = 64,
    ) -> None:
        self.chip = chip
        self.scenario = scenario
        self.fleet = tuple(fleet)
        self.plan = plan
        self.receiver = receiver
        self.base_role = base_role
        self.batch = batch

    def generate(self, index: int, lo: int, hi: int) -> dict[str, np.ndarray]:
        # Imported here so the pure streaming machinery stays usable
        # without the simulation stack (tests, benches).
        from repro.experiments.campaign import acquire_campaigns, ed_campaign

        plans = [
            ed_campaign(
                self.chip,
                self.scenario,
                hi - lo,
                trojan_enables=tuple(enables),
                receivers=(self.receiver,),
                rng_role=chunk_role(
                    f"{self.base_role}/{chip_id}", self.plan, index
                ),
                batch=self.batch,
            )
            for chip_id, enables in self.fleet
        ]
        results = acquire_campaigns(self.chip, self.scenario, plans)
        return {
            chip_id: traces[self.receiver]
            for (chip_id, _), traces in zip(self.fleet, results)
        }


class StreamingTraceProducer:
    """Background chunk generator with bounded look-ahead.

    One producer serves every chip in the fleet: a chunk is generated
    once (lane-packed across chips) and handed to each chip's feed by
    reference.  The generation thread runs at most ``prefetch`` chunks
    past the slowest consumer's watermark; :meth:`rows` blocks until
    the needed chunk exists (stall time lands in
    ``producer.wait.seconds``).  Chunks the watermarks have passed are
    freed; a request *below* a freed chunk (only the post-run one-shot
    re-evaluation does this) regenerates it on demand — chunks are
    pure functions of ``(source, index)``, so the answer is identical.
    """

    def __init__(
        self,
        source,
        chip_ids,
        n_windows: int,
        chunk: int = DEFAULT_CHUNK_WINDOWS,
        prefetch: int = DEFAULT_PREFETCH,
        metrics: MetricsRegistry | None = None,
        on_chunk=None,
    ) -> None:
        """
        Parameters
        ----------
        source:
            Object with ``generate(index, lo, hi) -> {chip_id: rows}``.
        chip_ids:
            Fleet membership; every generated chunk must cover it.
        n_windows, chunk:
            The :class:`ChunkPlan` (windows per chip, windows per
            chunk).
        prefetch:
            Chunks generated ahead of the slowest consumer (>= 1;
            ``2`` = double buffering).
        metrics:
            Sink for the ``producer.*`` instruments (optional).
        on_chunk:
            Optional ``f(index, lo, hi, {chip: rows})`` called once
            per freshly generated chunk, from the producer thread —
            the campaign layer's incremental one-shot accumulator.
        """
        if prefetch < 1:
            raise ExperimentError(
                f"prefetch must be >= 1, got {prefetch}"
            )
        self.plan = ChunkPlan(n_windows=n_windows, chunk=chunk)
        self.chip_ids = list(chip_ids)
        if not self.chip_ids:
            raise ExperimentError("producer needs at least one chip")
        self.source = source
        self.prefetch = prefetch
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._on_chunk = on_chunk
        self._cond = threading.Condition()
        self._chunks: dict[int, dict[str, np.ndarray]] = {}
        self._next_gen = 0
        # Highest chunk a consumer is blocked on: generation may run
        # past the prefetch window to satisfy it (reordered/duplicated
        # deliveries can reference slightly ahead of the watermarks,
        # and demand-driven generation must never deadlock on the
        # look-ahead gate).
        self._demand = 0
        self._watermarks = {c: 0 for c in self.chip_ids}
        self._error: BaseException | None = None
        self._closed = False
        self._started = False
        # Serialises source.generate between the producer thread and
        # on-demand regeneration (post-run one-shot gathers).
        self._gen_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._generate_loop,
            name="fleet-trace-producer",
            daemon=True,
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "StreamingTraceProducer":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._started:
            self._thread.join(timeout=30)

    @property
    def n_windows(self) -> int:
        return self.plan.n_windows

    def source_for(self, chip_id: str) -> "ProducerTraceSource":
        """This chip's :class:`~repro.fleet.feed.TraceSource` view."""
        if chip_id not in self._watermarks:
            raise ExperimentError(
                f"unknown chip {chip_id!r}; producer serves "
                f"{self.chip_ids}"
            )
        return ProducerTraceSource(self, chip_id)

    # -- generation ----------------------------------------------------
    def _min_needed_chunk(self) -> int:
        return self.plan.chunk_of(min(self._watermarks.values()))

    def _generate_loop(self) -> None:
        plan = self.plan
        try:
            while True:
                with self._cond:
                    while not self._closed and not (
                        self._next_gen < plan.n_chunks
                        and (
                            self._next_gen - self._min_needed_chunk()
                            < self.prefetch + 1
                            or self._next_gen <= self._demand
                        )
                    ):
                        self._cond.wait()
                    if self._closed:
                        return
                    if self._next_gen >= plan.n_chunks:
                        return
                    index = self._next_gen
                lo, hi = plan.bounds(index)
                t0 = time.perf_counter()
                with self._gen_lock:
                    data = self.source.generate(index, lo, hi)
                self.metrics.histogram("producer.chunk.seconds").observe(
                    time.perf_counter() - t0
                )
                missing = [c for c in self.chip_ids if c not in data]
                if missing:
                    raise ExperimentError(
                        f"chunk {index} is missing chips {missing}"
                    )
                if self._on_chunk is not None:
                    self._on_chunk(index, lo, hi, data)
                self.metrics.counter("producer.chunks").inc()
                self.metrics.counter("producer.windows").inc(hi - lo)
                with self._cond:
                    self._chunks[index] = data
                    self._next_gen = index + 1
                    buffered = sum(
                        self.plan.bounds(k)[1] - self.plan.bounds(k)[0]
                        for k in self._chunks
                    )
                    self.metrics.gauge("producer.buffered_chunks").max(
                        len(self._chunks)
                    )
                    self.metrics.gauge("producer.buffered_windows").max(
                        buffered
                    )
                    self._cond.notify_all()
        except BaseException as exc:  # surfaced at the next rows() call
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def _chunk_data(self, index: int) -> dict[str, np.ndarray]:
        """One chunk's ``{chip: rows}``, regenerating if freed."""
        with self._cond:
            data = self._chunks.get(index)
        if data is not None:
            return data
        lo, hi = self.plan.bounds(index)
        with self._gen_lock:
            return self.source.generate(index, lo, hi)

    def _chunk_rows(self, index: int, chip_id: str) -> np.ndarray:
        return self._chunk_data(index)[chip_id]

    def _await_generated(self, kmax: int) -> None:
        """Block until every chunk ``<= kmax`` has been generated."""
        if not self._started:
            raise ExperimentError(
                "producer not started; call start() (or use it as a "
                "context manager) before streaming"
            )
        with self._cond:
            if self._next_gen <= kmax and self._error is None:
                self._demand = max(self._demand, kmax)
                self._cond.notify_all()
                t0 = time.perf_counter()
                while self._next_gen <= kmax and self._error is None \
                        and not self._closed:
                    self._cond.wait()
                self.metrics.histogram("producer.wait.seconds").observe(
                    time.perf_counter() - t0
                )
            if self._error is not None:
                raise ExperimentError(
                    "trace producer failed"
                ) from self._error
            if self._next_gen <= kmax:
                raise ExperimentError(
                    "producer closed before the stream completed"
                )

    # -- the consumer side ---------------------------------------------
    def join(self) -> None:
        """Block until every chunk has been generated.

        After a completed run this guarantees the ``on_chunk`` hook has
        observed the whole campaign — trailing chunks whose windows the
        link dropped are still generated (they are part of the
        campaign's definition), just never gathered.
        """
        self._await_generated(self.plan.n_chunks - 1)

    def rows(self, chip_id: str, seqs: np.ndarray) -> np.ndarray:
        """Rows for *seqs* of *chip_id*, blocking on generation."""
        seqs = np.asarray(seqs, dtype=np.intp)
        n = seqs.shape[0]
        if n == 0:
            raise ExperimentError("empty row request")
        kmax = self.plan.chunk_of(int(seqs.max()))
        self._await_generated(kmax)
        kmin = self.plan.chunk_of(int(seqs.min()))
        if kmin == kmax:
            rows = self._chunk_rows(kmax, chip_id)
            lo = self.plan.bounds(kmax)[0]
            local = seqs - lo
            if int(local[-1]) - int(local[0]) == n - 1 and np.array_equal(
                local, np.arange(local[0], local[0] + n)
            ):
                view = rows[int(local[0]):int(local[0]) + n]
                if view.flags.writeable:
                    view.flags.writeable = False
                return view
            return rows[local]
        pieces: dict[int, np.ndarray] = {
            int(k): self._chunk_rows(int(k), chip_id)
            for k in range(kmin, kmax + 1)
        }
        sample = next(iter(pieces.values()))
        out = np.empty((n, sample.shape[1]), dtype=sample.dtype)
        owner = seqs // self.plan.chunk
        for k, rows_k in pieces.items():
            mask = owner == k
            if mask.any():
                out[mask] = rows_k[seqs[mask] - self.plan.bounds(k)[0]]
        return out

    def advance(self, chip_id: str, watermark: int) -> None:
        """One chip's feed guarantees no gather below *watermark*."""
        with self._cond:
            if watermark > self._watermarks[chip_id]:
                self._watermarks[chip_id] = int(watermark)
                floor = min(self._watermarks.values())
                for k in [
                    k for k in self._chunks
                    if self.plan.bounds(k)[1] <= floor
                ]:
                    del self._chunks[k]
                self._cond.notify_all()


class ProducerTraceSource(TraceSource):
    """One chip's view of a shared :class:`StreamingTraceProducer`."""

    def __init__(
        self, producer: StreamingTraceProducer, chip_id: str
    ) -> None:
        self.producer = producer
        self.chip_id = chip_id

    @property
    def n_windows(self) -> int:
        return self.producer.n_windows

    def gather(self, seqs: np.ndarray) -> np.ndarray:
        return self.producer.rows(self.chip_id, seqs)

    def advance(self, watermark: int) -> None:
        self.producer.advance(self.chip_id, watermark)
