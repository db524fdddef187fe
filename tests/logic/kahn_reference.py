"""Dict-walking oracles for the array lowering and the simulator.

:func:`kahn_levels` is Kahn's algorithm over the combinational
instances, one instance at a time through the net and instance dicts,
and :func:`reference_compile` builds the simulator's index arrays and
``(level, cell name)`` schedule from it the same way, one instance at a
time.  Together they are the compiler that
:meth:`repro.logic.netlist.Netlist.lower` and
:class:`repro.logic.simulator.CompiledNetlist` replaced; the tests hold
the array lowering to them exactly.

:class:`KahnSimulator` runs a netlist on one bool array per net, walking
the instances one at a time in :func:`kahn_levels` order and applying
each library cell's function.  It shares no index array or schedule
with :class:`~repro.logic.simulator.CompiledNetlist`, so the tests hold
the lane-word simulator to it cycle by cycle.
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


class KahnSimulator:
    """Bool reference simulator: one ``(batch,)`` array per net.

    Same synchronous zero-delay contract as
    :class:`~repro.logic.simulator.CompiledNetlist`: :meth:`reset`
    zeroes every net, loads the ``ff_init`` values and the ties, applies
    the inputs and settles the logic; :meth:`step` captures each
    register's D (where its EN is high), applies the new inputs,
    settles, and returns which instance outputs changed.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        levels = kahn_levels(netlist)
        instances = list(netlist.instances.values())
        self.instances = instances
        # A stable sort by level is a topological order: every driver of
        # a level-l gate sits on a lower level.
        self.comb = sorted(
            (i for i in instances if i.cell.kind is CellKind.COMBINATIONAL),
            key=lambda i: levels[i.name],
        )
        self.seq = [i for i in instances if i.cell.is_sequential]
        self.values: dict[str, np.ndarray] = {}
        self.batch = 0

    def reset(
        self, batch: int, inputs: dict[str, np.ndarray] | None = None
    ) -> None:
        self.batch = batch
        self.values = {
            name: np.zeros(batch, dtype=bool) for name in self.netlist.nets
        }
        for inst in self.seq:
            init = bool(self.netlist.ff_init.get(inst.name, False))
            self.values[inst.output_net][:] = init
        for inst in self.instances:
            if inst.cell.is_tie:
                self.values[inst.output_net][:] = inst.cell.name == "TIE1"
        self._apply(inputs)
        self.settle()

    def step(self, inputs: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Advance one cycle; return the ``(instances, batch)`` toggles."""
        before = self.outputs()
        captured = {}
        for inst in self.seq:
            d = self.values[inst.pins["D"]]
            q = self.values[inst.output_net]
            en = self.values[inst.pins["EN"]] if "EN" in inst.pins else True
            captured[inst.output_net] = np.where(en, d, q)
        self.values.update(captured)
        self._apply(inputs)
        self.settle()
        return before ^ self.outputs()

    def outputs(self) -> np.ndarray:
        """Every instance's output value, ``(instances, batch)``."""
        return np.stack([self.values[i.output_net] for i in self.instances])

    def force(self, net: str, value: np.ndarray) -> None:
        """Override one net and re-settle the logic."""
        self.values[net] = np.array(value, dtype=bool)
        self.settle()

    def settle(self) -> None:
        """Evaluate every combinational instance once, in level order."""
        for inst in self.comb:
            args = [self.values[net] for net in inst.input_nets()]
            self.values[inst.output_net] = inst.cell.function(*args)

    def _apply(self, inputs: dict[str, np.ndarray] | None) -> None:
        for name, vals in (inputs or {}).items():
            self.values[name] = np.broadcast_to(
                np.asarray(vals, dtype=bool), (self.batch,)
            ).copy()
