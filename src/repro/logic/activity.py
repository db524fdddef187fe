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

#: Instances per fold GEMM: a level longer than this is folded in runs
#: of at most this many rows, so an on-demand column source (the
#: acquisition engine's) only ever builds a cache-sized slice.
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

    def counts_by_group(self) -> dict[str, int]:
        """Total toggles aggregated per instance group."""
        netlist = self._sim.netlist
        out: dict[str, int] = {}
        for name, count in zip(self._sim.instance_names, self.counts):
            group = netlist.instances[name].group
            out[group] = out.get(group, 0) + int(count)
        return out

    def activity_factor(self) -> np.ndarray:
        """Average toggles per instance per cycle (per batch column)."""
        if self.cycles == 0:
            raise SimulationError("no cycles recorded yet")
        return self.counts / float(self.cycles)


class ActivityAccumulator:
    """Per-cycle weighted toggle sums, grouped by switching-delay level.

    Parameters
    ----------
    weights:
        Per-instance scalar weight, shape ``(num_instances,)``.  The EM
        pipeline passes each cell's flux-coupling coefficient times its
        switched charge.
    bins:
        Per-instance integer delay level, shape ``(num_instances,)``.
        The power model derives these from topological levels so that
        deep gates switch later within the clock period.

    Instances are sorted by level once (:attr:`level_order`, with
    :attr:`level_bounds` delimiting each level's run), and the fold of
    a block is one small ``(accumulators, n) @ (n, batch)`` GEMM per
    cycle and run of at most :data:`FOLD_ROWS` same-level instances,
    summed into a ``(accumulators, cycles, levels, batch)`` frame.

    **The fold is exact.**  Each accumulator rounds its weights once to
    integer multiples of a power-of-two :attr:`step`, moving each by at
    most ``2**-(48 - n.bit_length())`` of the largest weight, where
    ``n`` is the size of the longest level (6e-11 on the 35 k-instance
    test chip, whose longest level holds 10 275 cells).  Fed integer
    activity codes of magnitude at most :data:`MAX_ACTIVITY_CODE` —
    bool toggles, or the acquisition engine's fall/rise codes — every
    partial sum is an integer below ``2**53``, which float64 holds
    without rounding, and the frames are that sum times :attr:`step`.  So the folded frames do
    not depend on summation order: any BLAS kernel, receiver subset,
    column count or chunking gives the same bits.  (A float32 GEMM per
    level is faster but not order-free: OpenBLAS picks different kernels
    for different receiver and column counts, so a solo acquisition
    would stop matching its lane group.)  Non-integer toggle values are
    folded too, without that guarantee.
    """

    def __init__(self, weights: np.ndarray, bins: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        bins = np.asarray(bins, dtype=np.int64)
        if weights.shape != bins.shape or weights.ndim != 1:
            raise SimulationError(
                f"weights {weights.shape} and bins {bins.shape} must be "
                "equal-length 1-D arrays"
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
        #: Weight quantum: a power of two, so rescaling is exact.
        self.step = grid_step(weights, bits)
        self._level_weights = np.rint(weights[self.level_order] / self.step)
        # Recorded history, stored as (cycles_in_block, bins, batch)
        # chunks, one per record_all_blocks call.
        self._blocks: list[np.ndarray] = []
        # Level-ordered weights of the accumulators this one leads in
        # record_all_blocks, stacked once; keyed on the followers
        # themselves (held, so the key can never be recycled).
        self._stack_followers: tuple[ActivityAccumulator, ...] | None = None
        self._stack: np.ndarray | None = None

    def _stacked(
        self, accumulators: list["ActivityAccumulator"]
    ) -> np.ndarray:
        """``(len(accumulators), insts)`` level-ordered weights (cached)."""
        if len(accumulators) == 1:
            return self._level_weights[None]
        followers = self._stack_followers
        if (
            followers is None
            or len(followers) != len(accumulators) - 1
            or any(a is not b for a, b in zip(followers, accumulators[1:]))
        ):
            self._stack_followers = tuple(accumulators[1:])
            self._stack = np.stack(
                [acc._level_weights for acc in accumulators]
            )
        return self._stack

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
        ``(n_cycles, insts, batch)``.  Any object with that ``shape``
        whose ``columns[:, lo:hi]`` returns rows ``lo:hi`` of every
        cycle works — the acquisition engine passes one that builds
        each slice on demand from its lane bytes, so no whole block is
        ever materialised (a slice only needs to stay valid until the
        next one is taken).
        """
        if not accumulators:
            return
        first = accumulators[0]
        expected = (n_cycles, first.weights.size, batch)
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
        weights = first._stacked(accumulators)
        frames = np.zeros(
            (len(accumulators), n_cycles, first.num_bins, batch)
        )
        part = np.empty((n_cycles, len(accumulators), batch))
        bounds = first.level_bounds
        for level in range(first.num_bins):
            end = int(bounds[level + 1])
            for lo in range(int(bounds[level]), end, FOLD_ROWS):
                hi = min(lo + FOLD_ROWS, end)
                np.matmul(weights[:, lo:hi], columns[:, lo:hi], out=part)
                frames[:, :, level] += part.transpose(1, 0, 2)
        for acc, frame in zip(accumulators, frames):
            frame *= acc.step
            acc._blocks.append(frame)

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
        """Drop all recorded frames (weights/bins are kept)."""
        self._blocks.clear()
