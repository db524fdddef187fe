"""Switching-activity recorders.

The simulator emits one toggle matrix per cycle; these helpers fold that
stream into the aggregates the rest of the pipeline needs:

* :class:`ToggleCountRecorder` — plain per-instance toggle totals, used
  for power reports and activity statistics;
* :class:`ActivityAccumulator` — per-cycle, per-delay-level *weighted*
  toggle sums, folded exactly.  With weights set to each cell's EM
  coupling coefficient (see :mod:`repro.em.coupling`) its output is, up
  to the pulse shape, the sensor waveform itself — this reduction is
  what lets a 33 k-gate design produce tens of thousands of traces in
  seconds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.logic.simulator import CompiledNetlist, lane_counts

#: Largest activity code magnitude :class:`ActivityAccumulator` folds
#: exactly (the acquisition engine's largest code is 20).
MAX_ACTIVITY_CODE = 31
_ACTIVITY_CODE_BITS = MAX_ACTIVITY_CODE.bit_length()

#: Live rows per code lookup and weight gather, per buffered cycle: a
#: fold of ``c`` cycles reads its live rows in chunks of at most
#: ``FOLD_ROWS * c``, so only a cache-sized slice of codes and weights
#: is ever materialised.
FOLD_ROWS = 512


def grid_step(weights: np.ndarray, bits: int) -> float:
    """Power-of-two weight quantum ``bits`` binary places below the
    largest ``|weight|``: every weight rounds to an integer multiple of
    it of magnitude at most ``2**bits``, and rescaling by it is exact."""
    _, exponent = np.frexp(np.max(np.abs(weights), initial=0.0))
    return float(np.ldexp(1.0, int(exponent) - bits))


class ToggleCountRecorder:
    """Accumulates total output toggles per instance."""

    def __init__(self, sim: CompiledNetlist) -> None:
        self._sim = sim
        self.counts = np.zeros(sim.num_instances, dtype=np.int64)
        self.cycles = 0

    def record(self, toggles: np.ndarray, batch: int) -> None:
        """Fold in one cycle's toggle matrix, summed over its *batch*
        lanes — bool or packed, as :meth:`CompiledNetlist.step` returned
        it; packed padding lanes are not counted."""
        if toggles.shape[0] != self._sim.num_instances:
            raise SimulationError(
                f"toggle matrix has {toggles.shape[0]} rows, expected "
                f"{self._sim.num_instances}"
            )
        self.counts += lane_counts(toggles, batch)
        self.cycles += 1


class FoldPlan:
    """Level layout and grid-rounded weights of receivers sharing bins.

    Parameters
    ----------
    weights:
        Per-instance weight rows, shape ``(rows, num_instances)`` — one
        row per receiver.  The EM pipeline passes each cell's
        flux-coupling coefficient times its switched charge.
    bins:
        Per-instance integer delay level, shape ``(num_instances,)``.
        The power model derives these from topological levels so that
        deep gates switch later within the clock period.

    Instances are sorted by level once (:attr:`level_order`, with
    :attr:`level_bounds` delimiting each level's run) and each row is
    rounded once to integer multiples of its power-of-two step
    (:attr:`steps`, :attr:`level_weights`).  Everything the plan
    derives is read-only, so one plan serves every acquisition of an
    engine, from any thread; :meth:`ActivityAccumulator.from_plan`
    hands out accumulators that share it.
    """

    def __init__(self, weights: np.ndarray, bins: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        bins = np.asarray(bins, dtype=np.int64)
        if weights.ndim != 2 or bins.shape != weights.shape[1:]:
            raise SimulationError(
                f"weights {weights.shape} must be (rows, {bins.size}) "
                f"for bins {bins.shape}"
            )
        if bins.size and bins.min() < 0:
            raise SimulationError("delay bins must be non-negative")
        self.weights = weights
        self.bins = bins
        self.num_bins = int(bins.max(initial=-1)) + 1
        #: Instance indices sorted by level (stable within a level).
        self.level_order = np.argsort(bins, kind="stable")
        #: ``level_order[level_bounds[l]:level_bounds[l + 1]]`` is level l.
        self.level_bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(bins, minlength=self.num_bins)))
        )
        # A level's sum has at most max(level size) terms, each below
        # 2**(bits + code bits): keep the total below 2**53.
        longest = int(np.diff(self.level_bounds).max(initial=0))
        bits = 53 - _ACTIVITY_CODE_BITS - longest.bit_length()
        #: Per-row weight quantum: a power of two, so rescaling is exact.
        self.steps = np.array([grid_step(w, bits) for w in weights])
        #: Level-ordered weights in units of their row's step.
        self.level_weights = np.rint(
            np.take(weights, self.level_order, axis=1) / self.steps[:, None]
        )
        for arr in (
            self.level_order, self.level_bounds, self.steps,
            self.level_weights,
        ):
            arr.flags.writeable = False


class _DenseColumns:
    """A materialised ``(cycles, insts, batch)`` block as a column source.

    Its live rows are the ``(cycle, instance)`` rows with any nonzero
    lane; their codes are gathered as they are.
    """

    def __init__(self, block: np.ndarray) -> None:
        cycles, insts, batch = self.shape = block.shape
        self._rows = block.reshape(cycles * insts, batch)

    def live_rows(self) -> np.ndarray:
        return np.flatnonzero(self._rows.any(axis=1))

    def codes(self, rows: np.ndarray, out: np.ndarray) -> None:
        out[...] = np.take(self._rows, rows, axis=0)


class ActivityAccumulator:
    """Per-cycle weighted toggle sums, grouped by switching-delay level.

    Parameters
    ----------
    weights:
        Per-instance scalar weight, shape ``(num_instances,)``.
    bins:
        Per-instance integer delay level, shape ``(num_instances,)``.

    The constructor builds a one-row :class:`FoldPlan`;
    :meth:`from_plan` binds an accumulator to one row of a shared plan
    instead, so an engine sorts its levels and rounds its weights once.

    The fold of a block (:meth:`record_all_blocks`) touches only its
    **live rows**: the ``(cycle, instance)`` rows toggled in some lane.
    It looks up their activity codes and gathers their weights in chunks
    of at most :data:`FOLD_ROWS` rows per cycle, and sums each
    ``(cycle, level)`` segment with one ``(accumulators, k) @ (k,
    batch)`` GEMM (one per piece where a chunk boundary splits it) into
    a zeroed ``(cycles, levels, accumulators, batch)`` frame.  A row
    that toggled in no lane adds nothing, so skipping it changes no
    bit.

    **The fold is exact.**  Each row of the plan is rounded once to
    integer multiples of a power-of-two :attr:`step`, moving each weight
    by at most ``2**-(48 - n.bit_length())`` of the largest one, where
    ``n`` is the size of the longest level (6e-11 on the 35 k-instance
    test chip, whose longest level holds 10 275 cells).  Fed integer
    activity codes of magnitude at most :data:`MAX_ACTIVITY_CODE` —
    bool toggles, or the acquisition engine's fall/rise codes — every
    partial sum is an integer below ``2**53``, which float64 holds
    without rounding, and the frames are that sum times :attr:`step`.
    So the folded frames do not depend on summation order: any BLAS
    kernel, receiver subset, column count, chunking or skipped zero row
    gives the same bits.  (A float32 GEMM per level is faster but not
    order-free: OpenBLAS picks different kernels for different receiver
    and column counts, so a solo acquisition would stop matching its
    lane group.)  Non-integer toggle values are folded too, without that
    guarantee.
    """

    def __init__(self, weights: np.ndarray, bins: np.ndarray) -> None:
        self._bind(FoldPlan(np.asarray(weights)[None], bins), 0)

    @classmethod
    def from_plan(cls, plan: FoldPlan, row: int) -> "ActivityAccumulator":
        """An empty accumulator folding with row *row* of *plan*."""
        acc = cls.__new__(cls)
        acc._bind(plan, row)
        return acc

    def _bind(self, plan: FoldPlan, row: int) -> None:
        self.weights = plan.weights[row]
        self.bins = plan.bins
        self.num_bins = plan.num_bins
        self.level_order = plan.level_order
        self.level_bounds = plan.level_bounds
        self.step = float(plan.steps[row])
        #: This row's level-ordered weights in units of :attr:`step`.
        self.level_weights = plan.level_weights[row]
        # Recorded history, stored as (cycles_in_block, bins, batch)
        # chunks, one per record_all_blocks call.
        self._blocks: list[np.ndarray] = []

    @staticmethod
    def record_all_blocks(
        accumulators: list["ActivityAccumulator"],
        columns,
        n_cycles: int,
        batch: int,
    ) -> None:
        """Fold a whole block of cycles into several accumulators at once.

        *columns* holds ``n_cycles`` toggle matrices stacked cycle by
        cycle, rows in **level order** (``level_order`` of the
        accumulators, which must all share ``bins``): shape
        ``(n_cycles, insts, batch)``.  It is either that ndarray or a
        column source with the same ``shape`` that numbers its rows
        cycle-major (row ``k * insts + i`` is instance ``i`` of cycle
        ``k``) and offers ``live_rows()``, the sorted rows with a
        nonzero code in some lane (it may report more), and
        ``codes(rows, out)``, which writes those rows' codes into a
        float64 ``(len(rows), batch)`` *out*.  The acquisition engine
        passes one that reads its lane words, so no whole block of codes
        is ever materialised.
        """
        if not accumulators:
            return
        first = accumulators[0]
        n_inst = first.weights.size
        expected = (n_cycles, n_inst, batch)
        if tuple(columns.shape) != expected:
            raise SimulationError(
                f"column block has shape {tuple(columns.shape)}, expected "
                f"{expected}"
            )
        for acc in accumulators[1:]:
            if acc.bins is not first.bins and not np.array_equal(
                acc.bins, first.bins
            ):
                raise SimulationError(
                    "accumulators folded together must share delay bins"
                )
        if isinstance(columns, np.ndarray):
            columns = _DenseColumns(columns)
        level_weights = [acc.level_weights for acc in accumulators]
        n_levels = first.num_bins
        frames = np.zeros((n_cycles * n_levels, len(accumulators), batch))
        rows = columns.live_rows()
        # Segment s = cycle * n_levels + level holds rows[edges[s]:
        # edges[s + 1]]: rows are cycle-major and level-ordered within
        # a cycle, so one search finds every segment.
        starts = (
            np.arange(n_cycles)[:, None] * n_inst + first.level_bounds[:-1]
        )
        edges = np.append(np.searchsorted(rows, starts.ravel()), rows.size)
        bounds = edges.tolist()
        chunk = FOLD_ROWS * n_cycles
        lo = hi = 0
        for s in np.flatnonzero(np.diff(edges)).tolist():
            a, b = bounds[s], bounds[s + 1]
            while a < b:
                if a >= hi:
                    # Read the next chunk of live rows, from this
                    # segment's first unread row on.
                    lo, hi = a, min(a + chunk, rows.size)
                    live = rows[lo:hi]
                    codes = np.empty((hi - lo, batch))
                    columns.codes(live, codes)
                    pos = live % n_inst
                    weights = np.empty((len(accumulators), hi - lo))
                    for row, w in zip(weights, level_weights):
                        np.take(w, pos, out=row)
                end = min(b, hi)
                piece = slice(a - lo, end - lo)
                frames[s] += weights[:, piece] @ codes[piece]
                a = end
        frames = frames.reshape(n_cycles, n_levels, len(accumulators), batch)
        for i, acc in enumerate(accumulators):
            acc._blocks.append(frames[:, :, i] * acc.step)

    @property
    def cycles(self) -> int:
        """Number of cycles recorded so far."""
        return sum(block.shape[0] for block in self._blocks)

    def result(self) -> np.ndarray:
        """Stacked history of shape ``(cycles, num_bins, batch)``."""
        if not self._blocks:
            raise SimulationError("no cycles recorded yet")
        return np.concatenate(self._blocks, axis=0)

    def clear(self) -> None:
        """Drop all recorded frames (the plan is kept)."""
        self._blocks.clear()
