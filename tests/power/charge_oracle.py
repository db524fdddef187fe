"""Per-instance loop oracle for :mod:`repro.power.charges`.

Walks the netlist's dicts one instance at a time, summing each output
net's load pins in :attr:`~repro.logic.netlist.Net.loads` order.  The
vectorised :func:`~repro.power.charges.switching_charges` and
:func:`~repro.power.charges.clock_charges` must equal it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.layout.technology import Technology
from repro.logic.netlist import Netlist
from repro.power.charges import CLOCK_CAP_FACTOR, WIRE_LENGTH_PER_PIN


def switching_charges_loop(
    netlist: Netlist, instance_names: list[str], tech: Technology
) -> np.ndarray:
    """Charge moved per output toggle for each of *instance_names* [C]."""
    charges = np.zeros(len(instance_names))
    for i, name in enumerate(instance_names):
        inst = netlist.instances[name]
        out_net = netlist.nets[inst.output_net]
        load_cap = inst.cell.output_cap
        for load_name, _pin in out_net.loads:
            load_cap += netlist.instances[load_name].cell.input_cap
        load_cap += tech.wire_cap_per_m * WIRE_LENGTH_PER_PIN * max(
            1, out_net.fanout
        )
        charges[i] = load_cap * tech.vdd
    return charges


def clock_charges_loop(
    netlist: Netlist, instance_names: list[str], tech: Technology
) -> np.ndarray:
    """Per-cycle clock charge for each of *instance_names* [C]."""
    charges = np.zeros(len(instance_names))
    for i, name in enumerate(instance_names):
        cell = netlist.instances[name].cell
        if cell.is_sequential:
            charges[i] = CLOCK_CAP_FACTOR * cell.input_cap * tech.vdd
    return charges
