"""Tests for the on-chip sensor and external probe models."""

import numpy as np
import pytest

from repro.em import chunking
from repro.em.mutual import mutual_inductance_to_loops
from repro.em.probe import PROBE_QUADRATURE, ExternalProbe
from repro.em.sensor import OnChipSensor, SensorArray
from repro.errors import EmModelError, TechnologyError
from repro.layout.geometry import Rect
from repro.layout.technology import make_tech180
from repro.units import MM, UM
from tests.em.reference_kernels import mutual_inductance_to_loop_loop

TOL = 1e-12


@pytest.fixture(scope="module")
def die():
    return Rect(0, 0, 800 * UM, 800 * UM)


@pytest.fixture(scope="module")
def tech():
    return make_tech180()


def test_sensor_design_basics(die, tech):
    sensor = OnChipSensor.design(die, tech, turns=10)
    assert sensor.turns == 10
    assert sensor.layer_name == tech.sensor_layer
    # Coil stays on the top metal plane.
    assert np.allclose(sensor.polyline[:, 2], tech.layer("M6").z)
    # Coil covers the die but stays inside it.
    half = 0.5 * min(die.width, die.height)
    extent = np.abs(sensor.polyline[:, :2] - np.array(die.center)).max()
    assert extent <= half
    assert extent >= 0.9 * (half - 10 * UM)


def test_sensor_min_width_rule_enforced(die, tech):
    with pytest.raises(TechnologyError):
        OnChipSensor.design(die, tech, trace_width=0.1 * UM)


def test_sensor_too_many_turns_rejected(die, tech):
    with pytest.raises(EmModelError):
        OnChipSensor.design(die, tech, turns=200, trace_width=4 * UM)


def test_sensor_effective_area_scales_with_turns(die, tech):
    a_small = OnChipSensor.design(die, tech, turns=6).effective_area()
    a_big = OnChipSensor.design(die, tech, turns=12).effective_area()
    assert a_big > a_small > 0


def test_sensor_resistance_positive_and_scales(die, tech):
    s_narrow = OnChipSensor.design(die, tech, turns=8, trace_width=2 * UM)
    s_wide = OnChipSensor.design(die, tech, turns=8, trace_width=4 * UM)
    assert s_narrow.resistance() > s_wide.resistance() > 0


def test_sensor_coupling_vector_shape(die, tech):
    sensor = OnChipSensor.design(die, tech, turns=6)
    seg_s = np.array([[100 * UM, 100 * UM, 0.8 * UM]])
    seg_e = np.array([[200 * UM, 100 * UM, 0.8 * UM]])
    m = sensor.coupling(seg_s, seg_e)
    assert m.shape == (1,)
    assert m[0] != 0.0


def test_sensor_describe_mentions_layer(die, tech):
    text = OnChipSensor.design(die, tech).describe()
    assert "M6" in text and "turns" in text


def test_probe_construction(die, tech):
    probe = ExternalProbe.langer_rf(die, die_top_z=5 * UM)
    assert probe.turns == 8
    zs = [loop[0, 2] for loop in probe.loops]
    assert min(zs) == pytest.approx(5 * UM + 100 * UM)
    assert zs == sorted(zs)


def test_probe_effective_area(die):
    probe = ExternalProbe.langer_rf(die, die_top_z=5 * UM, radius=1 * MM, turns=4)
    assert probe.effective_area() == pytest.approx(4 * np.pi * (1 * MM) ** 2, rel=0.02)


def test_probe_coupling_smaller_than_sensor_for_local_source(die, tech):
    """The locality argument: a single rail segment couples much more
    strongly to the on-chip coil than to the distant probe."""
    sensor = OnChipSensor.design(die, tech, turns=12)
    probe = ExternalProbe.langer_rf(die, die_top_z=5 * UM)
    seg_s = np.array([[300 * UM, 450 * UM, 0.8 * UM]])
    seg_e = np.array([[330 * UM, 450 * UM, 0.8 * UM]])
    m_sensor = abs(sensor.coupling(seg_s, seg_e)[0])
    m_probe = abs(probe.coupling(seg_s, seg_e)[0])
    assert m_sensor > 3 * m_probe


def test_probe_validation(die):
    with pytest.raises(EmModelError):
        ExternalProbe.langer_rf(die, die_top_z=0, turns=0)
    with pytest.raises(EmModelError):
        ExternalProbe.langer_rf(die, die_top_z=0, standoff=-1 * UM)


def test_probe_describe(die):
    text = ExternalProbe.langer_rf(die, die_top_z=5 * UM).describe()
    assert "standoff" in text and "mm" in text


def _grid_segments(n=200):
    """Manhattan rails over the die at the M1/M2 heights, like the grid."""
    rng = np.random.default_rng(2020)
    s = np.zeros((n, 3))
    s[:, :2] = rng.uniform(0.0, 800 * UM, (n, 2))
    s[:, 2] = rng.choice([0.8 * UM, 1.6 * UM], n)
    e = s.copy()
    e[: n // 2, 0] += 25 * UM
    e[n // 2 :, 1] += rng.choice([-1.0, 1.0], n - n // 2) * 150 * UM
    return s, e


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_sensor_coupling_matches_loop_reference(die, tech):
    seg_s, seg_e = _grid_segments()
    sensor = OnChipSensor.design(die, tech, turns=12)
    ref = mutual_inductance_to_loop_loop(seg_s, seg_e, sensor.polyline)
    assert _rel_err(sensor.coupling(seg_s, seg_e), ref) <= TOL


def _assert_probe_matches_gauss(probe, seg_s, seg_e, tol):
    """Each turn's row within *tol* of its peak from 16x16 Gauss, within
    TOL of the loop form of the same closed form, and the probe their
    sum."""
    rows = mutual_inductance_to_loops(
        seg_s, seg_e, probe.loops, n_quad=PROBE_QUADRATURE
    )
    for row, loop in zip(rows, probe.loops):
        gauss = mutual_inductance_to_loop_loop(
            seg_s, seg_e, loop, n_quad=16, exact_sides=False
        )
        assert _rel_err(row, gauss) <= tol
        same_form = mutual_inductance_to_loop_loop(
            seg_s, seg_e, loop, n_quad=PROBE_QUADRATURE
        )
        assert _rel_err(row, same_form) <= TOL
    # The probe is one pass over its turns, summed.
    assert np.array_equal(probe.coupling(seg_s, seg_e), rows.sum(axis=0))


def test_probe_coupling_matches_loop_reference_per_turn(die):
    """The two-point source rule's error grows as (length / distance)^4:
    1.0e-6 of peak on these 150 µm stripes, where 3x3 Gauss was 2.9e-7."""
    seg_s, seg_e = _grid_segments()
    _assert_probe_matches_gauss(
        ExternalProbe.langer_rf(die, die_top_z=5 * UM), seg_s, seg_e, 2e-6
    )


def test_probe_coupling_matches_gauss_on_the_chip_grid(chip):
    """Every 8th segment of the seed-1 chip's power grid, whose 7-25 µm
    segments put the two-point rule within 8.3e-10 of peak (3x3 Gauss:
    3.1e-7)."""
    grid = chip.grid
    _assert_probe_matches_gauss(
        chip.probe, grid.seg_start[::8], grid.seg_end[::8], 1e-9
    )


def test_probe_coupling_flips_sign_exactly_with_the_source(die):
    seg_s, seg_e = _grid_segments()
    probe = ExternalProbe.langer_rf(die, die_top_z=5 * UM)
    forward = probe.coupling(seg_s, seg_e)
    assert np.array_equal(probe.coupling(seg_e, seg_s), -forward)


def test_receiver_couplings_are_chunk_invariant(die, tech, monkeypatch):
    """Sensor, probe and array couplings are byte-equal when the chunk
    constant is shrunk to force many chunks."""
    seg_s, seg_e = _grid_segments()
    receivers = (
        OnChipSensor.design(die, tech, turns=12),
        ExternalProbe.langer_rf(die, die_top_z=5 * UM),
        SensorArray.design_grid(die, tech, rows=4, cols=4),
    )
    full = [r.coupling(seg_s, seg_e) for r in receivers]
    monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 16 * 1024)
    for receiver, default in zip(receivers, full):
        assert np.array_equal(receiver.coupling(seg_s, seg_e), default)
