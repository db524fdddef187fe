"""Per-cell charge and power accounting.

The dynamic charge a cell moves per output toggle is

    q = (C_out,intrinsic + Σ fanout input pin caps + C_wire) · VDD

with the wire capacitance estimated from fanout (a placed-but-unrouted
netlist has no extracted parasitics; a 6 µm-per-pin estimate is the
usual pre-route heuristic at 180 nm).  Sequential cells additionally
move a clock charge every cycle their clock is enabled.
"""

from __future__ import annotations

import numpy as np

from repro.layout.technology import Technology
from repro.logic.netlist import LoweredNetlist
from repro.units import UM

#: Estimated routed wire length per fanout pin [m].
WIRE_LENGTH_PER_PIN = 8 * UM

#: Clock-pin charge of a flop, as a multiple of its input pin cap.
CLOCK_CAP_FACTOR = 2.0


def switching_charges(lowered: LoweredNetlist, tech: Technology) -> np.ndarray:
    """Charge moved per output toggle for each instance [C], in the
    lowered (insertion) order, which is the compiled netlist's
    instance order, so the vector aligns with toggle matrices.

    An instance's load is its cell's output cap, plus the input cap of
    each load pin on its output net in :attr:`Net.loads` order, plus
    the fanout wire estimate.  Flattening ``in_idx`` row-major lists
    every net's load pins in exactly that order, since
    :meth:`Netlist.add_instance` appends them instance by instance, pin
    by pin.  One stable sort by net ranks each pin among its net's
    loads, and the k-th loads of all nets are added in one step for
    k = 0, 1, ..., so each charge sums the same terms in the same order
    as a walk over the loads would.
    """
    cells, cell_id, out_idx = lowered.cells, lowered.cell_id, lowered.out_idx
    input_cap = np.array([c.input_cap for c in cells])
    n_nets = len(lowered.net_index)
    pins = lowered.in_idx >= 0
    net = lowered.in_idx[pins]
    cap = np.repeat(input_cap[cell_id], pins.sum(axis=1))
    driver = np.full(n_nets, -1, dtype=np.int64)
    driver[out_idx] = np.arange(out_idx.size)
    driven = driver[net] >= 0
    net, cap = net[driven], cap[driven]
    fanout = np.bincount(net, minlength=n_nets)

    # Rank each load pin among its net's loads, then order the pins by
    # rank: slice k holds the k-th load of every net that has one.
    order = np.argsort(net, kind="stable")
    rank = np.arange(net.size) - (np.cumsum(fanout) - fanout)[net[order]]
    by_rank = order[np.argsort(rank, kind="stable")]
    target = driver[net[by_rank]]
    load = cap[by_rank]
    bounds = np.cumsum(np.bincount(rank))

    load_cap = np.array([c.output_cap for c in cells])[cell_id]
    lo = 0
    for hi in bounds:
        load_cap[target[lo:hi]] += load[lo:hi]
        lo = hi
    load_cap += tech.wire_cap_per_m * WIRE_LENGTH_PER_PIN * np.maximum(
        1, fanout[out_idx]
    )
    return load_cap * tech.vdd


def clock_charges(lowered: LoweredNetlist, tech: Technology) -> np.ndarray:
    """Per-cycle clock charge for each instance [C], in the lowered
    order; zero for combinational cells."""
    per_cell = np.array(
        [
            CLOCK_CAP_FACTOR * c.input_cap * tech.vdd if c.is_sequential else 0.0
            for c in lowered.cells
        ]
    )
    return per_cell[lowered.cell_id]
