"""Per-cycle recording helpers for the activity tests.

The acquisition engine folds whole blocks of cycles through
:meth:`~repro.logic.activity.ActivityAccumulator.record_all_blocks`.
:func:`record` and :func:`record_all` feed it one cycle's
``(insts, batch)`` toggle matrix at a time, and :class:`TraceRecorder`
keeps a small circuit's raw toggle history; only tests need either.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.logic.activity import ActivityAccumulator, FoldPlan
from repro.logic.simulator import CompiledNetlist
from tests.logic.dense_columns import DenseColumns


def solo(weights: np.ndarray, bins: np.ndarray) -> ActivityAccumulator:
    """An accumulator over a one-row plan of its own."""
    return ActivityAccumulator(FoldPlan(np.asarray(weights)[None], bins), 0)


def record_all(
    accumulators: list[ActivityAccumulator], toggles: np.ndarray
) -> None:
    """Fold one cycle's ``(insts, batch)`` toggle matrix into several
    accumulators sharing ``bins``: gathers its rows into level order
    and folds them as a one-cycle ``record_all_blocks`` block."""
    if not accumulators:
        return
    first = accumulators[0]
    toggles = np.asarray(toggles)
    if toggles.ndim != 2 or toggles.shape[0] != first.weights.size:
        raise SimulationError(
            f"toggle matrix has shape {toggles.shape}, expected "
            f"({first.weights.size}, batch)"
        )
    ActivityAccumulator.record_all_blocks(
        accumulators,
        DenseColumns(toggles[None, first.level_order]),
        1,
        toggles.shape[1],
    )


def record(acc: ActivityAccumulator, toggles: np.ndarray) -> None:
    """Fold one cycle's toggle matrix into a single accumulator."""
    record_all([acc], toggles)


class TraceRecorder:
    """Keeps every cycle's toggle lane words, as
    :meth:`~repro.logic.simulator.CompiledNetlist.step` returned them
    (small circuits only)."""

    def __init__(self, sim: CompiledNetlist, limit_cycles: int = 100_000) -> None:
        self._sim = sim
        self._limit = limit_cycles
        self._frames: list[np.ndarray] = []

    def record(self, toggles: np.ndarray) -> None:
        """Store one cycle's toggle lane words."""
        if len(self._frames) >= self._limit:
            raise SimulationError(
                f"TraceRecorder limit of {self._limit} cycles exceeded"
            )
        self._frames.append(toggles.copy())

    def history(self) -> np.ndarray:
        """Array of shape ``(cycles, num_instances, nwords)``."""
        if not self._frames:
            raise SimulationError("no cycles recorded yet")
        return np.stack(self._frames, axis=0)
