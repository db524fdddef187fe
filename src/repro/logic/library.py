"""A compact 180 nm-flavoured standard-cell library.

The numbers are representative of a generic 0.18 µm CMOS process
(VDD = 1.8 V, ~3.5 fF input pin capacitance, gate areas of a few tens of
µm², picoamp-class leakage).  Absolute accuracy is not required — the
paper's results depend on *relative* switching currents and cell
locations — but staying near real 180 nm values keeps the simulated
SNR figures in a physically plausible range.

Cell heights follow a classic 9-track row (height 5.04 µm); cell area is
``width * ROW_HEIGHT`` and the widths below are multiples of the
0.56 µm placement grid.
"""

from __future__ import annotations

from repro.errors import LibraryError
from repro.logic import cells as _f
from repro.logic.cells import CellKind, StdCell
from repro.units import FF, NA, UA, UM

#: Supply voltage of the modelled process [V].
VDD = 1.8

#: Standard-cell row height [m] (9-track, 0.56 µm track pitch).
ROW_HEIGHT = 5.04 * UM

#: Horizontal placement grid [m].
SITE_WIDTH = 0.56 * UM

#: Nominal single-gate propagation delay used to bin switching times [s].
GATE_DELAY = 120e-12


def _cell(
    name: str,
    kind: CellKind,
    inputs: tuple[str, ...],
    output: str,
    function,
    sites: int,
    input_cap: float,
    output_cap: float,
    drive_current: float,
    leakage: float,
    description: str,
) -> StdCell:
    return StdCell(
        name=name,
        kind=kind,
        inputs=inputs,
        output=output,
        function=function,
        area=sites * SITE_WIDTH * ROW_HEIGHT,
        input_cap=input_cap,
        output_cap=output_cap,
        drive_current=drive_current,
        leakage=leakage,
        description=description,
    )


_COMB = CellKind.COMBINATIONAL
_SEQ = CellKind.SEQUENTIAL
_TIE = CellKind.TIE

#: The library proper, keyed by cell name.
LIBRARY: dict[str, StdCell] = {
    cell.name: cell
    for cell in (
        _cell("BUF", _COMB, ("A",), "Y", _f.f_buf, 3, 3.2 * FF, 2.4 * FF,
              180 * UA, 12 * NA, "non-inverting buffer"),
        _cell("INV", _COMB, ("A",), "Y", _f.f_inv, 2, 3.5 * FF, 2.0 * FF,
              200 * UA, 10 * NA, "inverter"),
        _cell("NAND2", _COMB, ("A", "B"), "Y", _f.f_nand2, 3, 3.4 * FF,
              2.6 * FF, 190 * UA, 14 * NA, "2-input NAND"),
        _cell("NOR2", _COMB, ("A", "B"), "Y", _f.f_nor2, 3, 3.6 * FF,
              2.8 * FF, 170 * UA, 14 * NA, "2-input NOR"),
        _cell("AND2", _COMB, ("A", "B"), "Y", _f.f_and2, 4, 3.4 * FF,
              2.8 * FF, 185 * UA, 16 * NA, "2-input AND"),
        _cell("OR2", _COMB, ("A", "B"), "Y", _f.f_or2, 4, 3.6 * FF,
              2.9 * FF, 175 * UA, 16 * NA, "2-input OR"),
        _cell("XOR2", _COMB, ("A", "B"), "Y", _f.f_xor2, 6, 4.2 * FF,
              3.4 * FF, 210 * UA, 22 * NA, "2-input XOR"),
        _cell("XNOR2", _COMB, ("A", "B"), "Y", _f.f_xnor2, 6, 4.2 * FF,
              3.4 * FF, 210 * UA, 22 * NA, "2-input XNOR"),
        _cell("AND3", _COMB, ("A", "B", "C"), "Y", _f.f_and3, 5, 3.5 * FF,
              3.1 * FF, 180 * UA, 20 * NA, "3-input AND"),
        _cell("OR3", _COMB, ("A", "B", "C"), "Y", _f.f_or3, 5, 3.7 * FF,
              3.2 * FF, 170 * UA, 20 * NA, "3-input OR"),
        _cell("NAND3", _COMB, ("A", "B", "C"), "Y", _f.f_nand3, 4, 3.5 * FF,
              3.0 * FF, 185 * UA, 18 * NA, "3-input NAND"),
        _cell("NOR3", _COMB, ("A", "B", "C"), "Y", _f.f_nor3, 4, 3.8 * FF,
              3.1 * FF, 160 * UA, 18 * NA, "3-input NOR"),
        _cell("MUX2", _COMB, ("A", "B", "S"), "Y", _f.f_mux2, 7, 3.9 * FF,
              3.3 * FF, 195 * UA, 24 * NA, "2:1 multiplexer (Y=A when S=0)"),
        _cell("AOI21", _COMB, ("A", "B", "C"), "Y", _f.f_aoi21, 4, 3.5 * FF,
              2.9 * FF, 180 * UA, 17 * NA, "AND-OR-INVERT ~((A&B)|C)"),
        _cell("OAI21", _COMB, ("A", "B", "C"), "Y", _f.f_oai21, 4, 3.6 * FF,
              2.9 * FF, 180 * UA, 17 * NA, "OR-AND-INVERT ~((A|B)&C)"),
        _cell("DFF", _SEQ, ("D",), "Q", None, 12, 3.8 * FF, 3.6 * FF,
              260 * UA, 45 * NA, "rising-edge D flip-flop"),
        _cell("DFFE", _SEQ, ("D", "EN"), "Q", None, 15, 3.8 * FF, 3.6 * FF,
              260 * UA, 55 * NA, "D flip-flop with clock enable"),
        _cell("TIE0", _TIE, (), "Y", None, 2, 0.0, 1.2 * FF, 0.0, 4 * NA,
              "constant logic 0"),
        _cell("TIE1", _TIE, (), "Y", None, 2, 0.0, 1.2 * FF, 0.0, 4 * NA,
              "constant logic 1"),
    )
}


def get_cell(name: str) -> StdCell:
    """Look up a cell by name.

    Raises
    ------
    LibraryError
        If the cell does not exist in :data:`LIBRARY`.
    """
    try:
        return LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(LIBRARY))
        raise LibraryError(f"unknown cell {name!r}; library has: {known}") from None
