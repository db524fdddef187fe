"""An acquisition engine whose logic runs on bool arrays.

:class:`BoolLogicEngine` is an :class:`AcquisitionEngine` whose cycle
loop steps the chip's netlist on the bool
:class:`~tests.logic.kahn_reference.KahnSimulator` — one ``(batch,)``
array per net, instances walked one at a time in Kahn order — instead of
the compiled simulator's uint64 lane words.  Each cycle's bool toggles
and rises are packed into lane words only at the fold's door, and go
through the production fold, clock sums and synthesis, so its traces
must equal the production engine's bit for bit.

The compiled simulator only resets the state: the Kahn simulator starts
from the unpacked post-reset nets, and must find them settled.
:func:`engine_for` pins a test to either logic representation by name
(``"bool"`` or ``"packed"``).
"""

from __future__ import annotations

import numpy as np

from repro.chip.acquire import (
    FOLD_BLOCK_COLS,
    AcquisitionEngine,
    _LaneColumns,
)
from repro.logic.activity import ActivityAccumulator
from repro.logic.simulator import pack_bits, unpack_bits
from tests.logic.kahn_reference import KahnSimulator


class BoolLogicEngine(AcquisitionEngine):
    """Acquisition engine stepping the logic as bool arrays."""

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
        oracle = KahnSimulator(self.chip.netlist)
        oracle.batch = batch
        oracle.values = {
            net: unpack_bits(state.words[idx], batch)
            for net, idx in sim.net_index.items()
        }
        reset = oracle.outputs()
        oracle.settle()
        if not np.array_equal(oracle.outputs(), reset):
            raise AssertionError("the compiled reset left the logic unsettled")

        names = list(sim.net_index)
        watched = [names[i] for i in watch_idx]
        order = acc_list[0].level_order
        rec = np.empty((n_cycles + 1, len(watched), batch), dtype=bool)
        tog = np.empty((n_cycles, sim.num_instances, batch), dtype=bool)
        ris = np.empty_like(tog)
        rec[0] = [oracle.values[net] for net in watched]
        for k in range(1, n_cycles + 1):
            toggles = oracle.step(workload.inputs(k, batch))
            tog[k - 1] = toggles[order]
            ris[k - 1] = (toggles & oracle.outputs())[order]
            rec[k] = [oracle.values[net] for net in watched]
        # The production loop's flushes, in little-endian words: the
        # byte order the lane-code lookup reads.
        tog_words = pack_bits(tog).astype("<u8")
        ris_words = pack_bits(ris).astype("<u8")
        block = max(1, min(n_cycles, FOLD_BLOCK_COLS // batch))
        for start in range(0, n_cycles, block):
            stop = min(start + block, n_cycles)
            ActivityAccumulator.record_all_blocks(
                acc_list,
                _LaneColumns(
                    tog_words[start:stop], ris_words[start:stop], batch
                ),
                stop - start,
                batch,
            )
        return rec


def engine_for(kind: str, engine: AcquisitionEngine) -> AcquisitionEngine:
    """*engine* itself (``"packed"``) or its bool-logic twin (``"bool"``)."""
    if kind == "packed":
        return engine
    if kind == "bool":
        return BoolLogicEngine(engine.chip, engine.scenario)
    raise ValueError(f"unknown logic representation {kind!r}")
