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
from repro.logic.netlist import Netlist
from repro.units import UM

#: Estimated routed wire length per fanout pin [m].
WIRE_LENGTH_PER_PIN = 8 * UM

#: Clock-pin charge of a flop, as a multiple of its input pin cap.
CLOCK_CAP_FACTOR = 2.0


def switching_charges(
    netlist: Netlist,
    instance_names: list[str],
    tech: Technology,
) -> np.ndarray:
    """Charge moved per output toggle for each instance [C].

    *instance_names* fixes the output ordering (pass the compiled
    netlist's instance order so the vector aligns with toggle matrices).
    """
    charges = np.zeros(len(instance_names))
    for i, name in enumerate(instance_names):
        inst = netlist.instances[name]
        out_net = netlist.nets[inst.output_net]
        load_cap = inst.cell.output_cap
        for load_name, pin in out_net.loads:
            load_cell = netlist.instances[load_name].cell
            load_cap += load_cell.input_cap
        load_cap += tech.wire_cap_per_m * WIRE_LENGTH_PER_PIN * max(
            1, out_net.fanout
        )
        charges[i] = load_cap * tech.vdd
    return charges


def clock_charges(
    netlist: Netlist,
    instance_names: list[str],
    tech: Technology,
) -> np.ndarray:
    """Per-cycle clock charge for each instance [C]; zero for
    combinational cells."""
    charges = np.zeros(len(instance_names))
    for i, name in enumerate(instance_names):
        inst = netlist.instances[name]
        if inst.cell.is_sequential:
            charges[i] = CLOCK_CAP_FACTOR * inst.cell.input_cap * tech.vdd
    return charges
