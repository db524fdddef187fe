"""Dict-walking oracle for the array lowering of a netlist.

:func:`kahn_levels` is Kahn's algorithm over the combinational
instances, one instance at a time through the net and instance dicts,
and :func:`reference_compile` builds the simulator's index arrays and
``(level, cell name)`` schedule from it the same way, one instance at a
time.  Together they are the compiler that
:meth:`repro.logic.netlist.Netlist.lower` and
:class:`repro.logic.simulator.CompiledNetlist` replaced; the tests hold
the array lowering to them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.logic.cells import CellKind
from repro.logic.netlist import Netlist


def kahn_levels(netlist: Netlist) -> dict[str, int]:
    """Level of every combinational instance, by a dict-walking Kahn.

    Raises :class:`SimulationError` naming (up to eight of) the stuck
    instances if the combinational logic contains a cycle.
    """
    level: dict[str, int] = {}
    comb = [
        i
        for i in netlist.instances.values()
        if i.cell.kind is CellKind.COMBINATIONAL
    ]
    indeg: dict[str, int] = {}
    dependants: dict[str, list[str]] = {i.name: [] for i in comb}
    for inst in comb:
        count = 0
        for net_name in inst.input_nets():
            drv = netlist.nets[net_name].driver
            if drv is not None and drv in netlist.instances:
                if netlist.instances[drv].cell.kind is CellKind.COMBINATIONAL:
                    dependants[drv].append(inst.name)
                    count += 1
        indeg[inst.name] = count
    ready = [name for name, d in indeg.items() if d == 0]
    for name in ready:
        level[name] = 0
    head = 0
    while head < len(ready):
        name = ready[head]
        head += 1
        base = 0
        for net_name in netlist.instances[name].input_nets():
            drv = netlist.nets[net_name].driver
            if drv in level:
                base = max(base, level[drv] + 1)
        level[name] = base
        for nxt in dependants[name]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if len(level) != len(comb):
        stuck = sorted(set(indeg) - set(level))[:8]
        raise SimulationError(
            f"combinational loop in {netlist.name!r} involving: "
            + ", ".join(stuck)
        )
    return level


@dataclass
class ReferenceCompile:
    """The arrays :class:`CompiledNetlist` must produce, built per
    instance.  ``schedule`` lists ``(function, in_idx, out_idx)``."""

    instance_out_idx: np.ndarray
    instance_levels: np.ndarray
    seq_instance_idx: np.ndarray
    seq_d_idx: np.ndarray
    seq_q_idx: np.ndarray
    seq_enable_idx: np.ndarray
    seq_init: np.ndarray
    tie_idx: np.ndarray
    tie_val: np.ndarray
    schedule: list[tuple[object, tuple[np.ndarray, ...], np.ndarray]]


def reference_compile(netlist: Netlist) -> ReferenceCompile:
    """Lower *netlist* one instance at a time, levels from :func:`kahn_levels`."""
    net_index = {name: i for i, name in enumerate(netlist.nets)}
    instances = list(netlist.instances.values())
    index = {inst.name: i for i, inst in enumerate(instances)}
    levels = kahn_levels(netlist)
    seq = [inst for inst in instances if inst.cell.is_sequential]
    ties = [inst for inst in instances if inst.cell.is_tie]

    def idx(values) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    buckets: dict[tuple[int, str], list[int]] = {}
    for i, inst in enumerate(instances):
        if inst.cell.kind is CellKind.COMBINATIONAL:
            key = (levels[inst.name], inst.cell.name)
            buckets.setdefault(key, []).append(i)
    schedule = []
    for key in sorted(buckets):
        members = [instances[i] for i in buckets[key]]
        cell = members[0].cell
        schedule.append(
            (
                cell.function,
                tuple(
                    idx([net_index[m.pins[pin]] for m in members])
                    for pin in cell.inputs
                ),
                idx([net_index[m.output_net] for m in members]),
            )
        )
    return ReferenceCompile(
        instance_out_idx=idx([net_index[i.output_net] for i in instances]),
        instance_levels=idx([levels.get(i.name, 0) for i in instances]),
        seq_instance_idx=idx([index[i.name] for i in seq]),
        seq_d_idx=idx([net_index[i.pins["D"]] for i in seq]),
        seq_q_idx=idx([net_index[i.pins["Q"]] for i in seq]),
        seq_enable_idx=idx(
            [net_index[i.pins["EN"]] if "EN" in i.pins else -1 for i in seq]
        ),
        seq_init=np.array(
            [bool(netlist.ff_init.get(i.name, False)) for i in seq], dtype=bool
        ),
        tie_idx=idx([net_index[i.output_net] for i in ties]),
        tie_val=np.array([i.cell.name == "TIE1" for i in ties], dtype=bool),
        schedule=schedule,
    )
