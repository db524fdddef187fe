"""Tests for the power grid and the cell→segment current map."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.layout.current_map import (
    build_current_map,
    position_coupling,
)
from repro.layout.floorplan import plan_floorplan
from repro.layout.power_grid import build_power_grid
from repro.layout.technology import make_tech180
from repro.logic.builder import NetlistBuilder
from repro.units import UM


@pytest.fixture(scope="module")
def grid_setup():
    b = NetlistBuilder("die", group="aes")
    a = b.input("a")
    for _ in range(600):
        b.inv(a)
    nl = b.build()
    tech = make_tech180()
    fp = plan_floorplan(nl, tech)
    grid = build_power_grid(fp)
    return nl, fp, grid


def test_grid_segment_blocks_are_ordered(grid_setup):
    _nl, fp, grid = grid_setup
    assert grid.vdd_rail_base == 0
    assert grid.vss_rail_base == grid.n_rows * grid.n_tiles_x
    assert grid.vdd_stripe_base == 2 * grid.n_rows * grid.n_tiles_x
    assert grid.n_segments == grid.seg_end.shape[0] == grid.seg_width.shape[0]


def test_grid_segments_inside_die(grid_setup):
    _nl, fp, grid = grid_setup
    for arr in (grid.seg_start, grid.seg_end):
        assert arr[:, 0].min() >= -1e-9
        assert arr[:, 0].max() <= fp.die.width + 1e-9
        assert arr[:, 1].min() >= -1e-9
        assert arr[:, 1].max() <= fp.die.height + 1e-9


def test_rails_on_m1_stripes_on_m5(grid_setup):
    _nl, fp, grid = grid_setup
    tech = fp.tech
    z_rail = tech.layer("M1").z
    z_stripe = tech.layer("M5").z
    rail_z = grid.seg_start[: grid.vdd_stripe_base, 2]
    assert np.allclose(rail_z, z_rail)
    stripe_z = grid.seg_start[grid.vdd_stripe_base :, 2]
    assert np.allclose(stripe_z, z_stripe)


def test_current_map_shape_and_balance(grid_setup):
    nl, fp, grid = grid_setup
    from repro.layout.placement import place_netlist

    pl = place_netlist(nl, fp, seed=0)
    names = list(nl.instances)
    xs, ys = pl.arrays_for(names)
    cm = build_current_map(grid, xs, ys)
    assert cm.matrix.shape == (grid.n_segments, len(names))
    # Every cell must have a current path.
    per_cell = np.abs(cm.matrix).sum(axis=0)
    assert (np.asarray(per_cell).ravel() > 0).all()
    # VDD rail entry sum equals -1 * VSS rail entry sum per cell
    vdd_rail = cm.matrix[: grid.vss_rail_base].sum(axis=0)
    vss_rail = cm.matrix[grid.vss_rail_base : grid.vdd_stripe_base].sum(axis=0)
    assert np.allclose(np.asarray(vdd_rail), -np.asarray(vss_rail))


def test_cell_weights_fold(grid_setup):
    nl, fp, grid = grid_setup
    from repro.layout.placement import place_netlist

    pl = place_netlist(nl, fp, seed=0)
    xs, ys = pl.arrays_for(list(nl.instances))
    cm = build_current_map(grid, xs, ys)
    coupling = np.ones(grid.n_segments)
    w = cm.cell_weights(coupling)
    assert w.shape == (len(xs),)
    with pytest.raises(LayoutError):
        cm.cell_weights(np.ones(3))


def test_out_of_die_cell_rejected(grid_setup):
    _nl, fp, grid = grid_setup
    with pytest.raises(LayoutError):
        build_current_map(grid, np.array([-1.0]), np.array([0.0]))


def test_position_coupling_finite(grid_setup):
    _nl, fp, grid = grid_setup
    coupling = np.random.default_rng(0).normal(size=grid.n_segments)
    val = position_coupling(grid, coupling, fp.die.width / 2, fp.die.height / 2)
    assert np.isfinite(val)


def test_ring_current_fraction_scales_ring_entries(grid_setup):
    nl, fp, _grid = grid_setup
    from repro.layout.placement import place_netlist

    pl = place_netlist(nl, fp, seed=0)
    xs, ys = pl.arrays_for(list(nl.instances))
    g_off = build_power_grid(fp, ring_current_fraction=0.0)
    g_on = build_power_grid(fp, ring_current_fraction=0.5)
    cm_off = build_current_map(g_off, xs[:5], ys[:5])
    cm_on = build_current_map(g_on, xs[:5], ys[:5])
    ring_rows_off = np.abs(
        cm_off.matrix[g_off.ring_vdd_top_base :]
    ).sum()
    ring_rows_on = np.abs(cm_on.matrix[g_on.ring_vdd_top_base :]).sum()
    assert ring_rows_off == 0
    assert ring_rows_on > 0


def test_bad_tile_len_rejected(grid_setup):
    _nl, fp, _grid = grid_setup
    with pytest.raises(LayoutError):
        build_power_grid(fp, tile_len=-1 * UM)
