"""Cell functions for the per-cell tests, the library's and nine more.

The library carries only the cells a circuit instantiates.  The nine
compound cells it dropped (NAND2, NOR2, XNOR2, AND3, OR3, NAND3, NOR3,
AOI21 and OAI21) are written here as compositions of library cell
functions, the gates a netlist builds in their place, so the
truth-table and lane-safety tests still cover inverted and three-input
compositions of them.
"""

from __future__ import annotations

from repro.logic.library import LIBRARY

_f = {name: cell.function for name, cell in LIBRARY.items()}
_AND, _OR, _INV, _XOR = _f["AND2"], _f["OR2"], _f["INV"], _f["XOR2"]

COMPOUND = {
    "NAND2": lambda a, b: _INV(_AND(a, b)),
    "NOR2": lambda a, b: _INV(_OR(a, b)),
    "XNOR2": lambda a, b: _INV(_XOR(a, b)),
    "AND3": lambda a, b, c: _AND(_AND(a, b), c),
    "OR3": lambda a, b, c: _OR(_OR(a, b), c),
    "NAND3": lambda a, b, c: _INV(_AND(_AND(a, b), c)),
    "NOR3": lambda a, b, c: _INV(_OR(_OR(a, b), c)),
    "AOI21": lambda a, b, c: _INV(_OR(_AND(a, b), c)),
    "OAI21": lambda a, b, c: _INV(_AND(_OR(a, b), c)),
}

#: Every combinational cell function: the library's, then the compounds.
FUNCTIONS = {
    **{name: fn for name, fn in _f.items() if fn is not None},
    **COMPOUND,
}


def arity(name: str) -> int:
    return FUNCTIONS[name].__code__.co_argcount
