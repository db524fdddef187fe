"""Tests for the standard-cell primitives and library."""

import itertools

import numpy as np
import pytest

from repro.errors import LibraryError
from repro.logic.cells import CellKind
from repro.logic.library import LIBRARY, get_cell

TRUTH_TABLES = {
    "INV": lambda a: not a,
    "BUF": lambda a: a,
    "AND2": lambda a, b: a and b,
    "OR2": lambda a, b: a or b,
    "NAND2": lambda a, b: not (a and b),
    "NOR2": lambda a, b: not (a or b),
    "XOR2": lambda a, b: a != b,
    "XNOR2": lambda a, b: a == b,
    "AND3": lambda a, b, c: a and b and c,
    "OR3": lambda a, b, c: a or b or c,
    "NAND3": lambda a, b, c: not (a and b and c),
    "NOR3": lambda a, b, c: not (a or b or c),
    "MUX2": lambda a, b, s: b if s else a,
    "AOI21": lambda a, b, c: not ((a and b) or c),
    "OAI21": lambda a, b, c: not ((a or b) and c),
}


@pytest.mark.parametrize("name", sorted(TRUTH_TABLES))
def test_cell_truth_table(name):
    cell = get_cell(name)
    ref = TRUTH_TABLES[name]
    for bits in itertools.product([False, True], repeat=cell.arity):
        args = [np.array([b]) for b in bits]
        out = cell.evaluate(*args)
        assert bool(out[0]) == ref(*bits), f"{name}{bits}"


def test_cells_are_batched():
    cell = get_cell("XOR2")
    a = np.array([False, False, True, True])
    b = np.array([False, True, False, True])
    assert np.array_equal(cell.evaluate(a, b), a ^ b)


def test_sequential_cells_have_no_function():
    for name in ("DFF", "DFFE"):
        cell = get_cell(name)
        assert cell.is_sequential
        with pytest.raises(TypeError):
            cell.evaluate(np.array([True]))


def test_tie_cells_marked():
    assert get_cell("TIE0").is_tie
    assert get_cell("TIE1").is_tie


def test_unknown_cell_raises():
    with pytest.raises(LibraryError):
        get_cell("NAND17")


def test_evaluate_wrong_arity_raises():
    with pytest.raises(ValueError):
        get_cell("AND2").evaluate(np.array([True]))


def test_all_cells_have_positive_physical_data():
    for cell in LIBRARY.values():
        assert cell.area > 0
        assert cell.output_cap > 0
        assert cell.leakage >= 0
        if cell.kind is not CellKind.TIE:
            assert cell.input_cap > 0
            assert cell.drive_current > 0


def test_flop_area_exceeds_inverter():
    assert get_cell("DFF").area > get_cell("INV").area
