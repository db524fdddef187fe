"""Netlist data model.

A :class:`Netlist` is a flat graph of named :class:`Net` objects and
:class:`Instance` objects (standard cells with pin→net bindings).  The
clock is implicit: every sequential cell updates on the same global
rising edge, which matches the single-clock AES testchip of the paper.

Instances carry a free-form ``group`` label ("aes", "trojan1", ...)
used by Table I gate accounting and by the floorplanner to place each
subsystem in its own region, mirroring the paper's Figure 3 layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import NetlistError, SimulationError
from repro.logic.cells import CellKind, StdCell
from repro.logic.library import LIBRARY, get_cell


@dataclass(slots=True)
class Net:
    """A single-bit signal wire.

    ``driver`` is the name of the driving instance, or ``"<input>"`` for
    primary inputs; ``loads`` lists ``(instance_name, pin_name)`` pairs.
    """

    name: str
    driver: str | None = None
    loads: list[tuple[str, str]] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        """Number of input pins this net drives."""
        return len(self.loads)


@dataclass(slots=True)
class Instance:
    """A placed-by-name standard cell with pin→net bindings."""

    name: str
    cell: StdCell
    pins: dict[str, str]
    group: str = ""

    def input_nets(self) -> tuple[str, ...]:
        """Net names bound to the cell's input pins, in pin order."""
        return tuple(self.pins[p] for p in self.cell.inputs)

    @property
    def output_net(self) -> str:
        """Net name bound to the cell's output pin."""
        return self.pins[self.cell.output]


#: Pseudo-driver name recorded on primary-input nets.
INPUT_DRIVER = "<input>"

#: Every library cell, sorted by name; a lowered cell id indexes it, so
#: cell ids sort like cell names.
_CELLS = [LIBRARY[name] for name in sorted(LIBRARY)]
_CELL_ID = {cell.name: k for k, cell in enumerate(_CELLS)}
_ARITY = np.array([cell.arity for cell in _CELLS])
_COMBINATIONAL = np.array(
    [cell.kind is CellKind.COMBINATIONAL for cell in _CELLS], dtype=bool
)
#: Every library cell's pin names, inputs and output together.
_PINS = {
    cell.name: frozenset(cell.inputs) | {cell.output} for cell in _CELLS
}


@dataclass(frozen=True)
class LoweredNetlist:
    """A netlist's instances as flat arrays, rows in insertion order.

    Produced by :meth:`Netlist.lower`.  ``cells`` is the cell library
    sorted by name, and ``cell_id`` indexes it.
    ``in_idx`` is ``(n_instances, max_pins)``, ``max_pins`` the widest
    library cell's input count: each row lists the net indices of the
    cell's input pins in pin order, padded with -1.
    ``comb`` flags the combinational instances and ``levels`` is each
    one's topological level (0 for sequential and tie cells).
    """

    net_index: dict[str, int]
    cells: list[StdCell]
    cell_id: np.ndarray
    out_idx: np.ndarray
    in_idx: np.ndarray
    comb: np.ndarray
    levels: np.ndarray

    def of_cells(self, keep: Callable[[StdCell], bool]) -> np.ndarray:
        """Ascending indices of the instances whose cell passes *keep*."""
        flags = np.array([keep(c) for c in self.cells], dtype=bool)
        return np.flatnonzero(flags[self.cell_id])


class Netlist:
    """A flat single-clock gate-level netlist."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        #: Initial Q value of sequential instances after reset; flops not
        #: listed here reset to logic 0.
        self.ff_init: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> Net:
        """Create and return a new net.

        Raises
        ------
        NetlistError
            If a net of that name already exists.
        """
        if name in self.nets:
            raise NetlistError(f"net {name!r} already exists in {self.name!r}")
        net = Net(name)
        self.nets[name] = net
        return net

    def add_input(self, name: str) -> Net:
        """Create a primary-input net."""
        net = self.add_net(name)
        net.driver = INPUT_DRIVER
        self.inputs.append(name)
        return net

    def mark_output(self, name: str) -> None:
        """Flag an existing net as a primary output.

        Raises
        ------
        NetlistError
            If the net does not exist or is already an output.
        """
        if name not in self.nets:
            raise NetlistError(f"cannot mark unknown net {name!r} as output")
        if name in self.outputs:
            raise NetlistError(f"net {name!r} is already a primary output")
        self.outputs.append(name)

    def add_instance(
        self,
        name: str,
        cell_name: str,
        pins: dict[str, str],
        group: str = "",
    ) -> Instance:
        """Instantiate a library cell.

        All nets referenced in *pins* must already exist.  The output net
        must not have another driver.

        Raises
        ------
        NetlistError
            On duplicate instance names, unknown nets/pins, missing pins
            or multiply-driven nets.
        """
        if name in self.instances:
            raise NetlistError(f"instance {name!r} already exists")
        cell = get_cell(cell_name)
        expected = _PINS[cell.name]
        if pins.keys() != expected:
            raise NetlistError(
                f"instance {name!r} of {cell_name}: pins {sorted(pins)} "
                f"do not match cell pins {sorted(expected)}"
            )
        nets = self.nets
        for pin, net_name in pins.items():
            if net_name not in nets:
                raise NetlistError(
                    f"instance {name!r} pin {pin}: unknown net {net_name!r}"
                )
        out_net = nets[pins[cell.output]]
        if out_net.driver is not None:
            raise NetlistError(
                f"net {out_net.name!r} already driven by {out_net.driver!r}; "
                f"cannot also drive from {name!r}"
            )
        inst = Instance(name=name, cell=cell, pins=dict(pins), group=group)
        self.instances[name] = inst
        out_net.driver = name
        for pin in cell.inputs:
            nets[pins[pin]].loads.append((name, pin))
        return inst

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter_instances(self, group: str | None = None) -> Iterator[Instance]:
        """Iterate instances, optionally restricted to one group."""
        for inst in self.instances.values():
            if group is None or inst.group == group:
                yield inst

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def sequential_instances(self) -> list[Instance]:
        """All flip-flop instances in insertion order."""
        return [i for i in self.instances.values() if i.cell.is_sequential]

    # ------------------------------------------------------------------
    # Validation and levelisation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity.

        Raises
        ------
        NetlistError
            If any net is undriven or any output is missing.
        """
        undriven = [n.name for n in self.nets.values() if n.driver is None]
        if undriven:
            shown = ", ".join(sorted(undriven)[:8])
            raise NetlistError(
                f"{len(undriven)} undriven net(s) in {self.name!r}: {shown}"
            )
        for out in self.outputs:
            if out not in self.nets:
                raise NetlistError(f"primary output {out!r} has no net")

    def lower(self) -> LoweredNetlist:
        """Lower the instances to flat index arrays and levelise them.

        One Python pass over the instances collects each one's cell, its
        output net and its input nets; everything after that is numpy.
        Sources (primary inputs, flip-flop outputs, tie cells) sit at
        level 0; a combinational gate's level is one plus the maximum
        level of its combinational input drivers.  The levels come from
        frontier peeling (Kahn's algorithm one whole level per round):
        a gate joins the frontier once every combinational gate driving
        it has been peeled.

        Raises
        ------
        SimulationError
            If the combinational logic contains a cycle.
        """
        net_index = dict(zip(self.nets, range(len(self.nets))))
        instances = list(self.instances.values())
        n = len(instances)
        ids: list[int] = []
        outs: list[int] = []
        flat_in: list[int] = []
        for inst in instances:
            cell, pins = inst.cell, inst.pins
            ids.append(_CELL_ID[cell.name])
            outs.append(net_index[pins[cell.output]])
            flat_in.extend([net_index[pins[p]] for p in cell.inputs])
        cell_id = np.array(ids, dtype=np.int64)
        out_idx = np.array(outs, dtype=np.int64)
        width = _ARITY.max()
        in_idx = np.full((n, width), -1, dtype=np.int64)
        in_idx[np.arange(width) < _ARITY[cell_id][:, None]] = flat_in

        comb = _COMBINATIONAL[cell_id]
        # Combinational edges driver -> load, one per input pin.
        driver = np.full(len(net_index), -1, dtype=np.int64)
        driver[out_idx] = np.arange(n)
        drv = np.where(in_idx >= 0, driver[in_idx], -1)
        is_edge = comb[:, None] & (drv >= 0)
        is_edge[is_edge] = comb[drv[is_edge]]
        dst = np.nonzero(is_edge)[0]
        src = drv[is_edge]
        pending = np.bincount(dst, minlength=n)
        levels = np.zeros(n, dtype=np.int64)
        unplaced = comb.copy()
        frontier = unplaced & (pending == 0)
        level = 0
        while frontier.any():
            levels[frontier] = level
            unplaced &= ~frontier
            pending -= np.bincount(dst[frontier[src]], minlength=n)
            frontier = unplaced & (pending == 0)
            level += 1
        if unplaced.any():
            stuck = sorted(instances[i].name for i in np.flatnonzero(unplaced))
            raise SimulationError(
                f"combinational loop in {self.name!r} involving: "
                + ", ".join(stuck[:8])
            )
        return LoweredNetlist(
            net_index=net_index,
            cells=_CELLS,
            cell_id=cell_id,
            out_idx=out_idx,
            in_idx=in_idx,
            comb=comb,
            levels=levels,
        )

    def levelize(self) -> dict[str, int]:
        """Topological level of every *combinational* instance.

        The levels of :meth:`lower`, keyed by instance name in level
        order (insertion order within a level).

        Raises
        ------
        SimulationError
            If the combinational logic contains a cycle.
        """
        lowered = self.lower()
        comb = np.flatnonzero(lowered.comb)
        order = comb[np.argsort(lowered.levels[comb], kind="stable")]
        names = list(self.instances)
        return {names[i]: int(lowered.levels[i]) for i in order}
