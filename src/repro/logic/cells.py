"""Standard-cell primitives.

A :class:`StdCell` couples a Boolean function with the physical data the
power and layout models need: cell area, pin capacitance, drive current
and leakage.  Cells are immutable; the singleton instances live in
:mod:`repro.logic.library`.

Combinational functions operate on *batched* numpy boolean arrays so a
single simulator pass can evaluate many plaintexts at once — the batch
dimension is how the trace campaigns stay fast in pure Python.  Every
function is a pure ``& | ^ ~`` composition, so it computes the right
value per bit lane when handed the simulator's packed uint64 words too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BoolArray = np.ndarray
CellFunction = Callable[..., BoolArray]


class CellKind(enum.Enum):
    """Coarse behavioural class of a standard cell."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"
    TIE = "tie"


@dataclass(frozen=True)
class StdCell:
    """An immutable standard-cell definition.

    Parameters
    ----------
    name:
        Library cell name, e.g. ``"AND2"``.
    kind:
        Behavioural class; sequential cells are handled specially by the
        simulator (their output updates only on the clock edge).
    inputs:
        Ordered input pin names.  For sequential cells the data pin(s)
        come first; an optional enable pin is named ``"EN"``.
    output:
        Single output pin name (``"Y"`` for gates, ``"Q"`` for flops).
    function:
        Batched Boolean function for combinational cells, ``None`` for
        sequential/tie cells.
    area:
        Cell area in m^2 (library characterised at 180 nm).
    input_cap:
        Capacitance of one input pin in farads.
    output_cap:
        Intrinsic output (drain) capacitance in farads.
    drive_current:
        Peak switching current the output stage sources/sinks, in A.
    leakage:
        Static leakage current in A.
    """

    name: str
    kind: CellKind
    inputs: tuple[str, ...]
    output: str
    function: CellFunction | None
    area: float
    input_cap: float
    output_cap: float
    drive_current: float
    leakage: float
    description: str = field(default="", compare=False)

    @property
    def arity(self) -> int:
        """Number of input pins."""
        return len(self.inputs)

    @property
    def is_sequential(self) -> bool:
        """True for flip-flops and latches."""
        return self.kind is CellKind.SEQUENTIAL

    @property
    def is_tie(self) -> bool:
        """True for constant-generator cells (TIE0/TIE1)."""
        return self.kind is CellKind.TIE


# ---------------------------------------------------------------------------
# Boolean functions (batched numpy arrays)
# ---------------------------------------------------------------------------


def f_buf(a: BoolArray) -> BoolArray:
    return a.copy()


def f_inv(a: BoolArray) -> BoolArray:
    return ~a


def f_and2(a: BoolArray, b: BoolArray) -> BoolArray:
    return a & b


def f_or2(a: BoolArray, b: BoolArray) -> BoolArray:
    return a | b


def f_xor2(a: BoolArray, b: BoolArray) -> BoolArray:
    return a ^ b


def f_mux2(a: BoolArray, b: BoolArray, s: BoolArray) -> BoolArray:
    """2:1 multiplexer: output is *a* when ``s`` is 0, *b* when ``s`` is 1.

    Bitwise, so it selects per bit lane on packed words too; on bools
    it equals ``np.where(s, b, a)``.
    """
    return (b & s) | (a & ~s)
