"""Tests for layout geometry primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.layout.geometry import (
    Rect,
    circular_loop,
    enclosed_area,
    polyline_length,
    rectangular_spiral,
)
from repro.units import UM


def test_rect_basic_properties():
    r = Rect(0, 0, 2, 3)
    assert r.width == 2 and r.height == 3 and r.area == 6
    assert r.center == (1.0, 1.5)
    assert r.contains(1, 1)
    assert not r.contains(-0.1, 1)
    assert r.contains(-0.05, 1, tol=0.1)


def test_degenerate_rect_rejected():
    with pytest.raises(LayoutError):
        Rect(1, 0, 0, 1)


def test_polyline_length_simple():
    pts = np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0]], dtype=float)
    assert polyline_length(pts) == pytest.approx(7.0)


def test_polyline_validation():
    with pytest.raises(LayoutError):
        polyline_length(np.zeros((1, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10), st.floats(min_value=1e-6, max_value=1e-4))
def test_spiral_extent_and_planarity(turns, pitch):
    pts = rectangular_spiral(0.0, 0.0, 5e-6, pitch, turns)
    assert pts.shape == (4 * turns + 1, 3)
    assert np.allclose(pts[:, 2], 5e-6)
    extent = np.abs(pts[:, :2]).max()
    assert extent == pytest.approx(turns * pitch, rel=1e-9)


def test_spiral_starts_at_center():
    pts = rectangular_spiral(1.0, 2.0, 0.0, 1e-5, 3)
    assert tuple(pts[0]) == (1.0, 2.0, 0.0)


def test_spiral_segments_are_axis_aligned():
    pts = rectangular_spiral(0, 0, 0, 1e-5, 4)
    d = np.diff(pts, axis=0)
    # Each leg moves along exactly one of x or y.
    assert np.all((d[:, 0] == 0) | (d[:, 1] == 0))


def test_spiral_rejects_bad_params():
    with pytest.raises(LayoutError):
        rectangular_spiral(0, 0, 0, -1.0, 3)
    with pytest.raises(LayoutError):
        rectangular_spiral(0, 0, 0, 1e-5, 0)


def test_spiral_effective_area_grows_with_turns():
    a1 = abs(enclosed_area(rectangular_spiral(0, 0, 0, 10 * UM, 4)))
    a2 = abs(enclosed_area(rectangular_spiral(0, 0, 0, 10 * UM, 8)))
    assert a2 > a1


def test_circular_loop_closed_and_radius():
    loop = circular_loop(0, 0, 1e-4, 5e-4, n_sides=32)
    assert np.array_equal(loop[0], loop[-1])
    radii = np.linalg.norm(loop[:, :2], axis=1)
    assert np.allclose(radii, 5e-4)


def test_circular_loop_area_approaches_circle():
    r = 1e-3
    loop = circular_loop(0, 0, 0, r, n_sides=128)
    assert enclosed_area(loop) == pytest.approx(np.pi * r * r, rel=2e-3)


def test_circular_loop_validation():
    with pytest.raises(LayoutError):
        circular_loop(0, 0, 0, -1)
    with pytest.raises(LayoutError):
        circular_loop(0, 0, 0, 1, n_sides=2)
