"""The compiled arrays of the real chips, pinned.

:class:`~repro.logic.simulator.CompiledNetlist` must lower the seed-1
chips to the same arrays, levels and schedule as the dict-walking
compiler it replaced: the digests below were taken from that compiler.
The 4x4-array chip only adds receivers, so its netlist and its pin are
the default chip's.  Any change to the lowering that moves one index,
level or schedule group fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.chip import Chip
from repro.chip.config import ChipConfig
from repro.logic.simulator import CompiledNetlist

#: :func:`compiled_digest` of the AES die with every Trojan (default and
#: 4x4-array chips) and of the golden die, from the old compiler.
ALL_TROJANS_PIN = "8f67fd346d620ef5e5b0db67e31b70afc2bbd2d22a46632d330e6cf7666a8791"
GOLDEN_PIN = "6f3ec7521d2a2c22ba9eaaedb715c46abf259ac8e2179a0052104bde7b94053a"


def compiled_digest(sim: CompiledNetlist) -> str:
    """SHA-256 over every array and schedule group a compile produces."""
    h = hashlib.sha256()

    def add(arr) -> None:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())

    h.update("\n".join(sim.instance_names).encode())
    h.update("\n".join(sim.net_index).encode())
    add(np.fromiter(sim.net_index.values(), dtype=np.int64))
    for arr in (
        sim.instance_out_idx,
        sim.instance_levels,
        sim.seq_instance_idx,
        sim._seq_d_idx,
        sim._seq_q_idx,
        sim.seq_enable_idx,
        sim._seq_init,
        sim._tie_idx,
        sim._tie_val,
    ):
        add(arr)
    for group in sim._schedule:
        h.update(group.function.__name__.encode())
        for idx in group.in_idx + (group.out_idx,):
            add(idx)
    return h.hexdigest()


@pytest.fixture(scope="module")
def array_chip() -> Chip:
    return Chip.build(
        config=ChipConfig(sensor_array_rows=4, sensor_array_cols=4), seed=1
    )


def test_default_chip_compiles_to_pinned_arrays(chip):
    assert compiled_digest(chip.sim) == ALL_TROJANS_PIN


def test_array_chip_compiles_to_pinned_arrays(array_chip):
    assert compiled_digest(array_chip.sim) == ALL_TROJANS_PIN


def test_golden_die_compiles_to_pinned_arrays(golden_chip):
    assert compiled_digest(golden_chip.sim) == GOLDEN_PIN
