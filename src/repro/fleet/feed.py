"""Per-chip trace streams with arrival batching and fault injection.

A deployed monitor never sees a tidy trace matrix: windows arrive in
transport batches, and the telemetry link between a chip's sensor and
the fleet service loses, repeats and reorders them.  :class:`TraceFeed`
replays a trace campaign (anything the acquisition/cache layers
produce, usually via :func:`repro.experiments.campaign.
get_or_generate_traces`) as exactly that kind of stream: window rows
delivered in :class:`WindowBatch` chunks, each row tagged with its
source sequence number, with deterministic injected fault points
(dropped / duplicated / out-of-order windows) drawn from the library's
seeded RNG streams.

The delivery schedule is computed eagerly from ``(seed, chip_id)``
alone, so two feeds over the same campaign are identical, and
:meth:`TraceFeed.batch_at` is random access: the scheduler queues
batch indices, not batches.

Where the rows themselves come from is a :class:`TraceSource`: a
prematerialised trace matrix (:class:`MatrixTraceSource` — memmapped
cache hits included) or rows pulled on demand from a live producer
(:class:`~repro.fleet.producer.ProducerTraceSource`, which every fleet
campaign uses).  The schedule is a pure function of ``(n_windows,
faults, seed, chip_id)`` — no trace bytes involved — so every source
yields the same delivery order and the same accounting, and a
producer-backed feed is bit-identical to a feed over the same rows as
one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.rng import derive


@dataclass(frozen=True)
class FaultSpec:
    """Per-window fault probabilities on the chip-to-service link."""

    #: Probability a window is lost in transit (never delivered).
    drop: float = 0.0
    #: Probability a window is delivered twice (back to back).
    duplicate: float = 0.0
    #: Probability a delivered window swaps with its successor.
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ExperimentError(
                    f"fault probability {name} must be in [0, 1), got {p}"
                )

    @property
    def any(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.reorder > 0


#: The clean link (no injected faults).
NO_FAULTS = FaultSpec()


@dataclass(eq=False)
class WindowBatch:
    """One arrival batch of trace windows for one chip."""

    chip_id: str
    #: Source window index of each row (post-fault delivery order).
    seqs: tuple[int, ...]
    #: ``(len(seqs), samples)`` trace rows, delivery order.
    traces: np.ndarray
    #: ``seqs`` as an int array, for accounting hot paths (optional —
    #: consumers fall back to converting ``seqs``).
    seq_array: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.seqs)


def _delivery_schedule(
    n: int, faults: FaultSpec, rng: np.random.Generator
) -> tuple[list[int], list[int], int, int]:
    """Delivered source indices plus (dropped, duplicated, reordered).

    Draw order is fixed (drop, duplicate, reorder) so a schedule is a
    pure function of ``(n, faults, rng stream)``.  Drop wins over
    duplicate for the same window; reorder swaps adjacent *delivered*
    positions, skipping overlaps left to right.
    """
    drop_mask = rng.random(n) < faults.drop
    dup_mask = rng.random(n) < faults.duplicate
    delivered: list[int] = []
    dropped: list[int] = []
    duplicated = 0
    for seq in range(n):
        if drop_mask[seq]:
            dropped.append(seq)
            continue
        delivered.append(seq)
        if dup_mask[seq]:
            delivered.append(seq)
            duplicated += 1
    swap_draw = rng.random(max(len(delivered) - 1, 0))
    reordered = 0
    i = 0
    while i < len(delivered) - 1:
        if swap_draw[i] < faults.reorder:
            delivered[i], delivered[i + 1] = delivered[i + 1], delivered[i]
            reordered += 1
            i += 2
        else:
            i += 1
    return delivered, dropped, duplicated, reordered


class TraceSource:
    """Where a feed's window rows live.

    A source exposes the campaign's pre-fault window count and serves
    rows by source sequence number.  :meth:`advance` is a *watermark
    hint*: the feed guarantees no later :meth:`gather` will ask for a
    sequence below the watermark, which is what lets a streaming
    source free already-scored chunks (a matrix source ignores it).
    """

    @property
    def n_windows(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def gather(self, seqs: np.ndarray) -> np.ndarray:
        """Rows for *seqs* (delivery order), shape ``(len(seqs), S)``."""
        raise NotImplementedError  # pragma: no cover - interface

    def advance(self, watermark: int) -> None:
        """No future gather will need a sequence ``< watermark``."""


class MatrixTraceSource(TraceSource):
    """A prematerialised ``(n_windows, samples)`` campaign matrix."""

    def __init__(self, traces: np.ndarray) -> None:
        traces = np.atleast_2d(np.asarray(traces))
        if traces.ndim != 2 or traces.shape[0] < 1:
            raise ExperimentError(
                f"feed traces must be (n, samples), got {traces.shape}"
            )
        self.matrix = traces

    @property
    def n_windows(self) -> int:
        return self.matrix.shape[0]

    def gather(self, seqs: np.ndarray) -> np.ndarray:
        n = seqs.shape[0]
        # A batch no drop/duplicate/reorder fault touched selects a
        # contiguous ascending run — serve it as a read-only slice view
        # instead of a fancy-indexed copy, so memmapped campaign rows
        # stay on disk until the scoring engine actually reads them.
        if n and int(seqs[-1]) - int(seqs[0]) == n - 1 \
                and np.array_equal(seqs, np.arange(seqs[0], seqs[0] + n)):
            view = self.matrix[int(seqs[0]):int(seqs[0]) + n]
            if view.flags.writeable:
                view.flags.writeable = False
            return view
        return self.matrix[seqs]


class TraceFeed:
    """Replay of one chip's trace campaign as a batched stream."""

    def __init__(
        self,
        chip_id: str,
        traces,
        batch: int = 8,
        faults: FaultSpec | None = None,
        seed: int = 0,
    ) -> None:
        """
        Parameters
        ----------
        chip_id:
            Stream identity; also salts the fault-injection RNG role.
        traces:
            ``(n_windows, samples)`` campaign matrix (memmapped cache
            hits work unchanged; rows are only read), or any
            :class:`TraceSource` — such as a live producer — serving
            the same windows.
        batch:
            Windows per arrival batch (the last batch may be short).
        faults:
            Link fault probabilities; ``None`` means a clean link.
        seed:
            Parent seed of the fault-injection stream (derived through
            :func:`repro.rng.derive` with role ``fleet/feed/<chip_id>``).
        """
        if batch < 1:
            raise ExperimentError(f"batch must be >= 1, got {batch}")
        source = (
            traces
            if isinstance(traces, TraceSource)
            else MatrixTraceSource(traces)
        )
        if source.n_windows < 1:
            raise ExperimentError(
                f"feed needs at least one window, got {source.n_windows}"
            )
        self.chip_id = chip_id
        self.batch = batch
        self.faults = faults or NO_FAULTS
        self.seed = seed
        self.source = source
        delivered, dropped, duplicated, reordered = _delivery_schedule(
            source.n_windows,
            self.faults,
            derive(seed, f"fleet/feed/{chip_id}"),
        )
        #: Source window indices in delivery order.
        self.delivered_seqs: tuple[int, ...] = tuple(delivered)
        #: Source window indices lost in transit (surfaced, never silent).
        self.dropped_seqs: tuple[int, ...] = tuple(dropped)
        self.duplicated = duplicated
        self.reordered = reordered
        # Same indices as an array: fancy-indexing with a list re-walks
        # it element by element on every batch_at call.
        self._delivered_arr = np.asarray(delivered, dtype=np.intp)
        # Suffix minimum of the delivered sequence stream: the lowest
        # source seq any batch >= i can still reference.  Feeds are
        # consumed in ascending batch order, so after serving batch i
        # the source may discard everything below
        # ``_suffix_min[(i + 1) * batch]`` — the watermark handed to
        # :meth:`TraceSource.advance`.
        if len(delivered):
            self._suffix_min = np.minimum.accumulate(
                self._delivered_arr[::-1]
            )[::-1]
        else:
            self._suffix_min = self._delivered_arr

    @property
    def n_delivered(self) -> int:
        """Windows the link actually delivers (post-fault)."""
        return len(self.delivered_seqs)

    @property
    def n_batches(self) -> int:
        return -(-self.n_delivered // self.batch)

    def batch_at(self, index: int) -> WindowBatch:
        """The *index*-th arrival batch (random access, deterministic)."""
        if not 0 <= index < self.n_batches:
            raise ExperimentError(
                f"batch index {index} out of range [0, {self.n_batches})"
            )
        lo, hi = index * self.batch, (index + 1) * self.batch
        sel = self._delivered_arr[lo:hi]
        rows = self.source.gather(sel)
        n = len(self._delivered_arr)
        if hi < n:
            self.source.advance(int(self._suffix_min[hi]))
        else:
            self.source.advance(self.source.n_windows)
        return WindowBatch(
            chip_id=self.chip_id,
            seqs=self.delivered_seqs[lo:hi],
            traces=rows,
            seq_array=sel,
        )

    def seqs_at(self, index: int) -> tuple[int, ...]:
        """The *index*-th batch's sequence numbers, without trace rows.

        Drop accounting only needs the seqs; this skips the
        fancy-indexed row copy :meth:`batch_at` pays (which
        materialises memmapped rows into memory).
        """
        if not 0 <= index < self.n_batches:
            raise ExperimentError(
                f"batch index {index} out of range [0, {self.n_batches})"
            )
        return self.delivered_seqs[index * self.batch:(index + 1) * self.batch]

    def __iter__(self):
        for i in range(self.n_batches):
            yield self.batch_at(i)
