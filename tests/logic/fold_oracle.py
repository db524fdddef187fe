"""Dense level-run fold: the oracle of the live-row activity fold.

:func:`level_run_fold` is the fold the acquisition engine ran before it
learned to skip idle rows: every level-ordered instance of every cycle,
live or not, is folded in runs of at most ``run`` same-level instances,
one ``(accumulators, k) @ (cycles, k, batch)`` GEMM per run, summed
into a ``(accumulators, cycles, levels, batch)`` frame.  On integer
activity codes both folds are exact, so
:meth:`~repro.logic.activity.ActivityAccumulator.record_all_blocks`
must match it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.logic.activity import ActivityAccumulator


def level_run_fold(
    accumulators: list[ActivityAccumulator],
    columns,
    run: int = 512,
) -> list[np.ndarray]:
    """Fold a dense level-ordered ``(cycles, insts, batch)`` block.

    *columns* is that ndarray, or any object with its ``shape`` whose
    ``columns[:, lo:hi]`` returns rows ``lo:hi`` of every cycle.
    Returns one ``(cycles, levels, batch)`` frame per accumulator, in
    the units :meth:`ActivityAccumulator.result` reports (the grid sum
    times the accumulator's ``step``); the accumulators are not touched.
    """
    first = accumulators[0]
    n_cycles, _, batch = columns.shape
    weights = np.stack([acc.level_weights for acc in accumulators])
    frames = np.zeros((len(accumulators), n_cycles, first.num_bins, batch))
    part = np.empty((n_cycles, len(accumulators), batch))
    bounds = first.level_bounds
    for level in range(first.num_bins):
        end = int(bounds[level + 1])
        for lo in range(int(bounds[level]), end, run):
            hi = min(lo + run, end)
            np.matmul(weights[:, lo:hi], columns[:, lo:hi], out=part)
            frames[:, :, level] += part.transpose(1, 0, 2)
    return [frame * acc.step for acc, frame in zip(accumulators, frames)]
