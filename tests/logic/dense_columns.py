"""A materialised activity-code block as a fold column source.

:meth:`~repro.logic.activity.ActivityAccumulator.record_all_blocks`
reads its block through a column source (``shape``, ``live_rows()``,
``codes(rows, out)``); the acquisition engine's reads lane words.
:class:`DenseColumns` serves a dense ``(cycles, insts, batch)`` ndarray
the same way, for the tests that fold hand-built toggle or code blocks.
"""

from __future__ import annotations

import numpy as np


class DenseColumns:
    """A ``(cycles, insts, batch)`` block as a column source.

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
