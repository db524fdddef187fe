"""Read and force single nets of a running simulation.

The simulator hands whole buses to its callers
(:meth:`~repro.logic.simulator.CompiledNetlist.read_bus_bits`); tests
that watch one net or a narrow bus as an integer, or inject a fault,
use these.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.logic.simulator import CompiledNetlist, pack_bits


def read(sim: CompiledNetlist, state, net: str) -> np.ndarray:
    """Current value of one net across the batch."""
    return sim.read_bus_bits(state, [net])[0]


def read_bus(sim: CompiledNetlist, state, bus: list[str]) -> np.ndarray:
    """Bus values (MSB first, up to 63 bits) as ``(batch,)`` integers."""
    if len(bus) > 63:
        raise SimulationError(
            f"read_bus supports up to 63 bits, got {len(bus)}; "
            "use read_bus_bits"
        )
    bits = sim.read_bus_bits(state, bus)
    weights = np.int64(1) << np.arange(len(bus) - 1, -1, -1, dtype=np.int64)
    return weights @ bits.astype(np.int64)


def force_net(sim: CompiledNetlist, state, net: str, value) -> None:
    """Override a net's value and let the combinational logic re-settle
    (fault injection, e.g. an A2 payload)."""
    idx = sim.net_index.get(net)
    if idx is None:
        raise SimulationError(f"unknown net {net!r}")
    arr = np.asarray(value, dtype=bool)
    if arr.ndim == 0:
        arr = np.full(state.batch, bool(arr))
    state.words[idx] = pack_bits(arr)
    sim._propagate(state)
