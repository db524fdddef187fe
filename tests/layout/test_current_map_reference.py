"""Vectorised current map against the per-cell loop reference.

The reference below is the original one-cell-at-a-time path walk.  The
production builder in :mod:`repro.layout.current_map` must reproduce its
CSR arrays byte for byte — explicit zeros at ``ring_current_fraction=0``
included — and :func:`position_coupling` must reproduce its path-order
sum bit for bit, so receiver couplings, traces and cache keys never move.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.chip.chip as chip_module
from repro.chip import Chip
from repro.chip.config import ChipConfig
from repro.errors import LayoutError
from repro.layout.current_map import (
    CurrentMap,
    build_current_map,
    position_coupling,
)
from repro.layout.power_grid import PowerGrid


# ----------------------------------------------------------------------
# Loop reference
# ----------------------------------------------------------------------
def reference_path(
    grid: PowerGrid, x: float, y: float
) -> tuple[list[int], list[float]]:
    """Signed tile path for one cell at (x, y)."""
    rh_row = min(max(int(y / (grid.die_height / grid.n_rows)), 0), grid.n_rows - 1)
    kx = min(int(x / grid.tile_len), grid.n_tiles_x - 1)
    stripe = int(np.argmin(np.abs(grid.stripe_xs - x)))
    ks = min(int(grid.stripe_xs[stripe] / grid.tile_len), grid.n_tiles_x - 1)
    ky = min(int(y / grid.tile_len), grid.n_tiles_y - 1)

    seg_ids: list[int] = []
    values: list[float] = []
    if kx >= ks:
        rail_tiles, sign = range(ks, kx + 1), 1.0
    else:
        rail_tiles, sign = range(kx, ks + 1), -1.0
    for k in rail_tiles:
        seg_ids += [
            grid.vdd_rail_base + rh_row * grid.n_tiles_x + k,
            grid.vss_rail_base + rh_row * grid.n_tiles_x + k,
        ]
        values += [sign, -sign]

    from_bottom = y < 0.5 * grid.die_height
    if from_bottom:
        stripe_tiles, sign = range(0, ky + 1), 1.0
    else:
        stripe_tiles, sign = range(ky, grid.n_tiles_y), -1.0
    for k in stripe_tiles:
        seg_ids += [
            grid.vdd_stripe_base + stripe * grid.n_tiles_y + k,
            grid.vss_stripe_base + stripe * grid.n_tiles_y + k,
        ]
        values += [sign, -sign]

    if from_bottom:
        vdd_base, vss_base = grid.ring_vdd_bottom_base, grid.ring_vss_bottom_base
    else:
        vdd_base, vss_base = grid.ring_vdd_top_base, grid.ring_vss_top_base
    for k in range(0, ks + 1):
        seg_ids.append(vdd_base + k)
        values.append(grid.ring_current_fraction)
    for k in range(ks, grid.n_tiles_x):
        seg_ids.append(vss_base + k)
        values.append(grid.ring_current_fraction)
    return seg_ids, values


def reference_current_map(grid: PowerGrid, xs, ys) -> CurrentMap:
    """The loop builder: one path walk per cell, assembled through COO."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for c, (x, y) in enumerate(zip(np.asarray(xs, float), np.asarray(ys, float))):
        if not (0.0 <= x <= grid.die_width and 0.0 <= y <= grid.die_height):
            raise LayoutError(f"cell {c} at ({x:.2e}, {y:.2e}) lies outside the die")
        seg_ids, values = reference_path(grid, x, y)
        rows.extend(seg_ids)
        cols.extend([c] * len(seg_ids))
        vals.extend(values)
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(grid.n_segments, len(xs))
    )
    return CurrentMap(matrix=matrix, grid=grid)


def reference_position_coupling(grid, segment_coupling, x, y) -> float:
    seg_ids, values = reference_path(grid, x, y)
    coupling = np.asarray(segment_coupling, dtype=np.float64)
    return float(sum(coupling[s] * v for s, v in zip(seg_ids, values)))


def assert_same_csr(got: sparse.csr_matrix, want: sparse.csr_matrix) -> None:
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def array_chip() -> Chip:
    """The seed-1 chip with the 4x4 sensor array of ``localization_array``."""
    return Chip.build(
        config=ChipConfig(sensor_array_rows=4, sensor_array_cols=4), seed=1
    )


@pytest.fixture(scope="module")
def placement_xy(array_chip):
    return array_chip.placement.arrays_for(array_chip.sim.instance_names)


def edge_positions(grid: PowerGrid) -> tuple[np.ndarray, np.ndarray]:
    """Corners, edges, the top-branch midline and stripe boundaries."""
    w, h = grid.die_width, grid.die_height
    pts = [
        (0.0, 0.0), (w, 0.0), (0.0, h), (w, h),  # corners
        (0.5 * w, 0.0), (0.5 * w, h), (0.0, 0.5 * h), (w, 0.5 * h),  # edges
        (0.3 * w, 0.5 * h), (np.nextafter(0.7 * w, 0.0), np.nextafter(0.5 * h, 0.0)),
        (w, 0.25 * h), (w, 0.75 * h),  # x == die_width
    ]
    for a, b in zip(grid.stripe_xs[:-1], grid.stripe_xs[1:]):
        mid = 0.5 * (a + b)
        # The midpoint and its neighbours: one of them is an exact tie.
        for x in (np.nextafter(mid, 0.0), mid, np.nextafter(mid, w)):
            pts += [(x, 0.2 * h), (x, 0.8 * h)]
    for s in grid.stripe_xs:  # kx == ks: a one-tile rail run
        pts += [(s, 0.1 * h), (s, 0.5 * h)]
    xs, ys = (np.array(v, dtype=float) for v in zip(*pts))
    return xs, ys


# ----------------------------------------------------------------------
# Byte identity of the CSR arrays
# ----------------------------------------------------------------------
def test_array_chip_map_matches_reference(array_chip, placement_xy):
    xs, ys = placement_xy
    want = reference_current_map(array_chip.grid, xs, ys).matrix
    # The default ring fraction of 0 stores its ring entries as zeros.
    assert array_chip.grid.ring_current_fraction == 0.0
    assert (want.data == 0.0).any()
    assert_same_csr(array_chip.current_map.matrix, want)
    assert_same_csr(build_current_map(array_chip.grid, xs, ys).matrix, want)


@pytest.mark.parametrize("ring_fraction", [0.0, 0.5])
def test_edge_positions_match_reference(array_chip, ring_fraction):
    grid = dataclasses.replace(array_chip.grid, ring_current_fraction=ring_fraction)
    xs, ys = edge_positions(grid)
    assert_same_csr(
        build_current_map(grid, xs, ys).matrix,
        reference_current_map(grid, xs, ys).matrix,
    )


def test_edge_positions_cover_the_branches(array_chip):
    grid = array_chip.grid
    xs, ys = edge_positions(grid)
    assert (ys == 0.5 * grid.die_height).any()  # top branch at the midline
    assert (xs == grid.die_width).any()
    dist = np.abs(grid.stripe_xs - xs[:, None])
    nearest = np.sort(dist, axis=1)
    assert (nearest[:, 0] == nearest[:, 1]).any()  # an exact stripe tie
    kx = np.minimum((xs / grid.tile_len).astype(int), grid.n_tiles_x - 1)
    ks = np.minimum(
        (grid.stripe_xs[dist.argmin(axis=1)] / grid.tile_len).astype(int),
        grid.n_tiles_x - 1,
    )
    assert (kx == ks).any() and (kx > ks).any() and (kx < ks).any()


def test_ring_fraction_half_matches_reference(array_chip, placement_xy):
    grid = dataclasses.replace(array_chip.grid, ring_current_fraction=0.5)
    xs, ys = (v[::7] for v in placement_xy)
    assert_same_csr(
        build_current_map(grid, xs, ys).matrix,
        reference_current_map(grid, xs, ys).matrix,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_positions_match_reference(array_chip, data):
    grid = array_chip.grid
    n = data.draw(st.integers(min_value=0, max_value=12))
    coords = st.floats(min_value=0.0, max_value=1.0)
    xs = np.array([data.draw(coords) for _ in range(n)]) * grid.die_width
    ys = np.array([data.draw(coords) for _ in range(n)]) * grid.die_height
    xs, ys = np.minimum(xs, grid.die_width), np.minimum(ys, grid.die_height)
    assert_same_csr(
        build_current_map(grid, xs, ys).matrix,
        reference_current_map(grid, xs, ys).matrix,
    )
    coupling = np.random.default_rng(n).normal(size=grid.n_segments)
    for x, y in zip(xs, ys):
        assert position_coupling(grid, coupling, x, y) == (
            reference_position_coupling(grid, coupling, x, y)
        )


def neumaier_sum(values) -> float:
    """Compensated sum, as the builtin sum() of plain floats from 3.12."""
    total = comp = 0.0
    for v in map(float, values):
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def test_position_coupling_sums_left_to_right(array_chip):
    """The tap sum is the uncompensated path-order fold on every Python.

    The couplings span 16 decades, so compensated and plain sums differ
    in the last bits at some of these points; a compensated sum (the
    builtin sum() over Python floats from 3.12) would fail here.
    """
    grid = array_chip.grid
    rng = np.random.default_rng(7)
    coupling = rng.normal(size=grid.n_segments) * 10.0 ** rng.uniform(
        -8, 8, size=grid.n_segments
    )
    xs = rng.uniform(0.0, grid.die_width, size=40)
    ys = rng.uniform(0.0, grid.die_height, size=40)
    compensated_differs = False
    for x, y in zip(xs, ys):
        got = position_coupling(grid, coupling, x, y)
        assert got == reference_position_coupling(grid, coupling, x, y)
        seg_ids, values = reference_path(grid, x, y)
        terms = [coupling[s] * v for s, v in zip(seg_ids, values)]
        compensated_differs |= neumaier_sum(terms) != got
    assert compensated_differs


# ----------------------------------------------------------------------
# Receivers built from the reference
# ----------------------------------------------------------------------
def test_receivers_bit_identical_to_reference(array_chip, monkeypatch):
    monkeypatch.setattr(chip_module, "build_current_map", reference_current_map)
    monkeypatch.setattr(
        chip_module, "position_coupling", reference_position_coupling
    )
    ref = Chip.build(config=array_chip.config, seed=array_chip.seed)
    assert list(ref.receivers) == list(array_chip.receivers)
    assert len(array_chip.receivers) == 18 and len(array_chip.taps) > 0
    for name, rcv in array_chip.receivers.items():
        want = ref.receivers[name]
        assert rcv.cell_coupling.tobytes() == want.cell_coupling.tobytes(), name
        assert rcv.tap_coupling == want.tap_coupling, name


# ----------------------------------------------------------------------
# Bad coordinates fail fast
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_bad_coordinates_rejected(array_chip, bad, axis):
    grid = array_chip.grid
    xs = np.full(6, 0.5 * grid.die_width)
    ys = np.full(6, 0.5 * grid.die_height)
    (xs if axis == "x" else ys)[[2, 4]] = bad
    with pytest.raises(LayoutError, match=r"^cell 2 at .* outside the die"):
        build_current_map(grid, xs, ys)
    coupling = np.zeros(grid.n_segments)
    x, y = (bad, 0.0) if axis == "x" else (0.0, bad)
    with pytest.raises(LayoutError, match="outside the die"):
        position_coupling(grid, coupling, x, y)
