"""Per-cycle float64 dense reference for the engine's activity fold.

:class:`ReferenceFoldEngine` is an :class:`AcquisitionEngine` whose
cycle loop is the plain one: each cycle's toggle lane words are
unpacked to one bool toggle matrix, weighted ``toggles *
FALL_CURRENT_FRACTION + rising * (1 - FALL_CURRENT_FRACTION)`` and
folded in float64 through a dense
``(levels, insts)`` matrix of the unrounded per-instance weights — none
of the production fold's level ordering, integer activity codes or
weight rounding.  Everything else — validation, RNG streams, enables,
synthesis — is the production path, so the traces differ from the
production ones only by the fold's weight rounding and float64
summation order (4e-9 of the trace peak on the seed-1 chip).

The loop also keeps the per-register clock-enable tensor the engine's
clock amplitudes are defined by, as :attr:`ReferenceFoldEngine.clock_en`
— ``(n_cycles, n_seq, batch)`` bool, from
:meth:`~repro.logic.simulator.CompiledNetlist.clock_enable_values` — so
the tests can check the engine's enable-net clock sums against
``np.einsum("s,csb->cb", w, clock_en)`` of the unrounded weights.

The kernel tests and ``benchmarks/bench_perf_kernels.py`` use it as
the numerical baseline the level fold is checked and timed against.
"""

from __future__ import annotations

import numpy as np

from repro.chip.acquire import (
    FALL_CURRENT_FRACTION,
    RISE_CODE,
    AcquisitionEngine,
)
from repro.logic.activity import ActivityAccumulator
from repro.logic.simulator import unpack_bits


def dense_fold_matrix(weights: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """``(levels, insts)`` matrix with ``weights[i]`` at ``(bins[i], i)``."""
    dense = np.zeros((int(bins.max(initial=-1)) + 1, weights.size))
    dense[bins, np.arange(weights.size)] = weights
    return dense


class ReferenceFoldEngine(AcquisitionEngine):
    """Acquisition engine running the per-cycle float64 dense fold."""

    #: Per-register clock enables of the last acquisition.
    clock_en: np.ndarray | None = None

    def _run_cycles_blocked(
        self,
        state,
        workload,
        n_cycles: int,
        batch: int,
        acc_list: list[ActivityAccumulator],
        watch_idx: np.ndarray,
    ) -> np.ndarray:
        sim = self.chip.sim
        # The accumulators hold weights per activity-code unit; a full
        # (rising) transition is RISE_CODE units.
        dense = np.stack([
            dense_fold_matrix(acc.weights * RISE_CODE, acc.bins)
            for acc in acc_list
        ])
        n_seq = sim.seq_instance_idx.size
        clock_en = np.empty((n_cycles, n_seq, batch), dtype=bool)
        rec_buf = np.empty((n_cycles + 1, watch_idx.size, batch), dtype=bool)
        frames = np.empty((len(acc_list), n_cycles, dense.shape[1], batch))
        rec_buf[0] = unpack_bits(state.words[watch_idx], batch)
        for k in range(1, n_cycles + 1):
            clock_en[k - 1] = unpack_bits(
                sim.clock_enable_values(state), batch
            )
            toggles = unpack_bits(
                sim.step(state, workload.inputs(k, batch)), batch
            )
            rising = toggles & unpack_bits(sim.output_values(state), batch)
            weighted = toggles * FALL_CURRENT_FRACTION + rising * (
                1.0 - FALL_CURRENT_FRACTION
            )
            frames[:, k - 1] = dense @ weighted
            rec_buf[k] = unpack_bits(state.words[watch_idx], batch)
        # Hand the float64 frames to the engine's synthesis path.
        for acc, frame in zip(acc_list, frames):
            acc.clear()
            acc._blocks.append(frame)
        self.clock_en = clock_en
        return rec_buf
