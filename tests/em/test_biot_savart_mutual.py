"""EM solver validation against analytic results and cross-checks."""

import numpy as np
import pytest

from repro.em.biot_savart import b_field_of_segments
from repro.em.mutual import mutual_inductance_to_loops
from repro.errors import EmModelError
from repro.layout.geometry import circular_loop
from repro.units import MU_0, UM
from tests.em.reference_kernels import flux_through_polygon


def _one_coil(seg_start, seg_end, loop, **kwargs):
    """The batched Neumann kernel's row for a single coil."""
    return mutual_inductance_to_loops(seg_start, seg_end, [loop], **kwargs)[0]


def test_field_at_center_of_circular_loop():
    radius = 1e-3
    loop = circular_loop(0, 0, 0, radius, n_sides=200)
    s, e = loop[:-1], loop[1:]
    field = b_field_of_segments(s, e, np.ones(len(s)), np.array([[0.0, 0.0, 0.0]]))
    assert field[0, 2] == pytest.approx(MU_0 / (2 * radius), rel=1e-3)
    assert abs(field[0, 0]) < 1e-12 and abs(field[0, 1]) < 1e-12


def test_field_of_long_straight_wire():
    """A long finite wire approaches mu0 I / (2 pi d) at its middle."""
    length = 1.0
    d = 1e-3
    s = np.array([[-length / 2, 0, 0]])
    e = np.array([[length / 2, 0, 0]])
    field = b_field_of_segments(s, e, np.array([1.0]), np.array([[0.0, d, 0.0]]))
    expected = MU_0 / (2 * np.pi * d)
    assert np.linalg.norm(field[0]) == pytest.approx(expected, rel=1e-4)
    # Direction: x-current, +y offset => field along -z... check orthogonality.
    assert abs(field[0, 0]) < 1e-15
    assert abs(field[0, 1]) < 1e-15


def test_field_reverses_with_current_sign():
    s = np.array([[-1.0, 0, 0]])
    e = np.array([[1.0, 0, 0]])
    p = np.array([[0.0, 1e-3, 0.0]])
    f1 = b_field_of_segments(s, e, np.array([1.0]), p)
    f2 = b_field_of_segments(s, e, np.array([-1.0]), p)
    assert np.allclose(f1, -f2)


def test_field_superposition():
    s = np.array([[-1.0, 0, 0], [0, -1.0, 0]])
    e = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    p = np.array([[0.5e-3, 1e-3, 2e-3]])
    both = b_field_of_segments(s, e, np.array([1.0, 2.0]), p)
    first = b_field_of_segments(s[:1], e[:1], np.array([1.0]), p)
    second = b_field_of_segments(s[1:], e[1:], np.array([2.0]), p)
    assert np.allclose(both, first + second)


def test_bad_shapes_rejected():
    with pytest.raises(EmModelError):
        b_field_of_segments(
            np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2), np.zeros((1, 3))
        )
    with pytest.raises(EmModelError):
        b_field_of_segments(
            np.zeros((2, 3)), np.ones((2, 3)), np.ones(3), np.zeros((1, 3))
        )


def test_neumann_matches_flux_integration():
    seg_s = np.array([[-200 * UM, 0, 0]])
    seg_e = np.array([[200 * UM, 0, 0]])
    loop = circular_loop(50 * UM, 180 * UM, 40 * UM, 250 * UM, n_sides=64)
    m = _one_coil(seg_s, seg_e, loop, n_quad=8)[0]
    phi = flux_through_polygon(seg_s, seg_e, np.array([1.0]), loop, grid=160)
    assert m == pytest.approx(phi, rel=5e-3)


def test_neumann_is_additive_over_segment_split():
    loop = circular_loop(50 * UM, 180 * UM, 40 * UM, 250 * UM, n_sides=32)
    whole = _one_coil(
        np.array([[-200 * UM, 0, 0]]), np.array([[200 * UM, 0, 0]]), loop, n_quad=8
    )[0]
    halves = _one_coil(
        np.array([[-200 * UM, 0, 0], [0, 0, 0]]),
        np.array([[0, 0, 0], [200 * UM, 0, 0]]),
        loop,
        n_quad=8,
    ).sum()
    assert halves == pytest.approx(whole, rel=2e-3)


def test_neumann_perpendicular_segments_decouple():
    """A z-directed segment has zero coupling to a planar loop's x/y runs."""
    loop = np.array(
        [[0, 0, 0], [1e-3, 0, 0], [1e-3, 1e-3, 0], [0, 1e-3, 0], [0, 0, 0]]
    )
    m = _one_coil(
        np.array([[2e-3, 2e-3, 0]]), np.array([[2e-3, 2e-3, 1e-3]]), loop
    )
    assert m[0] == 0.0


def test_neumann_symmetric_geometry_is_zero():
    """Wire through the loop centre: flux cancels by symmetry."""
    loop = circular_loop(0, 0, 50 * UM, 300 * UM, n_sides=64)
    m = _one_coil(
        np.array([[-200 * UM, 0, 0]]), np.array([[200 * UM, 0, 0]]), loop, n_quad=6
    )
    assert abs(m[0]) < 1e-15


def test_neumann_decays_with_distance():
    seg_s = np.array([[-100 * UM, 0, 0]])
    seg_e = np.array([[100 * UM, 0, 0]])
    values = []
    # Loop fully on one side of the wire (no flux cancellation), moved
    # progressively further away in z.
    for z in (20 * UM, 100 * UM, 500 * UM):
        loop = circular_loop(0, 120 * UM, z, 100 * UM, n_sides=32)
        values.append(
            abs(_one_coil(seg_s, seg_e, loop, n_quad=6)[0])
        )
    assert values[0] > values[1] > values[2]


def test_neumann_empty_input():
    loop = circular_loop(0, 0, 0, 1e-4)
    out = _one_coil(np.zeros((0, 3)), np.zeros((0, 3)), loop)
    assert out.shape == (0,)


def test_neumann_input_validation():
    loop = circular_loop(0, 0, 0, 1e-4)
    with pytest.raises(EmModelError):
        _one_coil(np.zeros((2, 3)), np.zeros((3, 3)), loop)
    with pytest.raises(EmModelError):
        _one_coil(
            np.zeros((1, 3)), np.ones((1, 3)), np.zeros((1, 3))
        )
    with pytest.raises(EmModelError):
        _one_coil(
            np.zeros((1, 3)), np.ones((1, 3)), loop, min_distance=0.0
        )


def test_neumann_antisymmetric_under_segment_reversal():
    loop = circular_loop(80 * UM, 200 * UM, 60 * UM, 200 * UM, n_sides=24)
    fwd = _one_coil(
        np.array([[-150 * UM, 10 * UM, 0]]),
        np.array([[150 * UM, 10 * UM, 0]]),
        loop,
        n_quad=5,
    )[0]
    rev = _one_coil(
        np.array([[150 * UM, 10 * UM, 0]]),
        np.array([[-150 * UM, 10 * UM, 0]]),
        loop,
        n_quad=5,
    )[0]
    assert rev == pytest.approx(-fwd, rel=1e-9)


def test_neumann_antisymmetric_under_loop_reversal():
    loop = circular_loop(80 * UM, 200 * UM, 60 * UM, 200 * UM, n_sides=24)
    fwd = _one_coil(
        np.array([[-150 * UM, 10 * UM, 0]]),
        np.array([[150 * UM, 10 * UM, 0]]),
        loop,
        n_quad=5,
    )[0]
    rev = _one_coil(
        np.array([[-150 * UM, 10 * UM, 0]]),
        np.array([[150 * UM, 10 * UM, 0]]),
        loop[::-1],
        n_quad=5,
    )[0]
    assert rev == pytest.approx(-fwd, rel=1e-9)


def test_neumann_translation_invariance():
    """Shifting source and coil together leaves the coupling unchanged."""
    loop = circular_loop(80 * UM, 200 * UM, 60 * UM, 200 * UM, n_sides=24)
    shift = np.array([123 * UM, -47 * UM, 11 * UM])
    base = _one_coil(
        np.array([[-150 * UM, 10 * UM, 0]]),
        np.array([[150 * UM, 10 * UM, 0]]),
        loop,
        n_quad=5,
    )[0]
    moved = _one_coil(
        np.array([[-150 * UM, 10 * UM, 0]]) + shift,
        np.array([[150 * UM, 10 * UM, 0]]) + shift,
        loop + shift,
        n_quad=5,
    )[0]
    assert moved == pytest.approx(base, rel=1e-12)
