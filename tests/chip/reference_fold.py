"""Per-cycle float64 reference for the engine's blocked float32 fold.

:class:`ReferenceFoldEngine` is an :class:`AcquisitionEngine` whose
cycle loop is the pre-bit-slicing one: bool backend, one toggle matrix
per cycle, weighted ``toggles * FALL_CURRENT_FRACTION + rising * (1 -
FALL_CURRENT_FRACTION)`` and folded in float64.  Everything else —
validation, RNG streams, enables, synthesis — is the production path,
so the traces differ from the production ones only by the fold's
float32 round-off (~1e-7 relative over ~35 k-term sums).

The kernel tests and ``benchmarks/bench_perf_kernels.py`` use it as
the numerical baseline the blocked fold is checked and timed against.
"""

from __future__ import annotations

import numpy as np

from repro.chip.acquire import FALL_CURRENT_FRACTION, AcquisitionEngine
from repro.logic.activity import ActivityAccumulator
from repro.logic.simulator import PackedState, SimulationState, unpack_bits


class ReferenceFoldEngine(AcquisitionEngine):
    """Acquisition engine running the per-cycle float64 reference fold."""

    def _run_cycles_blocked(
        self,
        state,
        workload,
        n_cycles: int,
        batch: int,
        acc_list: list[ActivityAccumulator],
        watch_idx: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        sim = self.chip.sim
        if isinstance(state, PackedState):
            # The packed reset is bit-exact, so its unpacked lanes are
            # the bool backend's post-reset state.
            state = SimulationState(
                values=np.ascontiguousarray(unpack_bits(state.words, batch)),
                cycle=state.cycle,
            )
        ref_accs = [
            ActivityAccumulator(acc.weights, acc.bins, dtype=np.float64)
            for acc in acc_list
        ]
        n_seq = sim.seq_instance_idx.size
        clock_en = np.empty((n_cycles, n_seq, batch), dtype=bool)
        rec_buf = np.empty((n_cycles + 1, watch_idx.size, batch), dtype=bool)
        if watch_idx.size:
            rec_buf[0] = state.values[watch_idx]
        for k in range(1, n_cycles + 1):
            clock_en[k - 1] = sim.clock_enable_values(state)
            toggles = sim.step(state, workload.inputs(k, batch))
            rising = toggles & sim.output_values(state)
            weighted = toggles * FALL_CURRENT_FRACTION + rising * (
                1.0 - FALL_CURRENT_FRACTION
            )
            ActivityAccumulator.record_all(ref_accs, weighted)
            if watch_idx.size:
                rec_buf[k] = state.values[watch_idx]
        # Hand the float64 frames to the engine's synthesis path.
        for acc, ref in zip(acc_list, ref_accs):
            acc.clear()
            acc._blocks.extend(ref._blocks)
        return clock_en, rec_buf
