"""Sensor-array geometry and the batched multi-coil mutual kernel.

The batched :func:`mutual_inductance_to_loops` must agree with the
per-coil loop reference of :mod:`tests.em.reference_kernels` to 1e-12
relative error for every coil, and the :class:`SensorArray` grid must
tile the die row-major with full DRC'd spirals per tile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.em import chunking
from repro.em.mutual import mutual_inductance_to_loops
from repro.em.sensor import OnChipSensor, SensorArray
from repro.errors import EmModelError
from repro.layout.geometry import Rect
from repro.layout.technology import make_tech180
from repro.units import UM
from tests.em.reference_kernels import mutual_inductance_to_loop_loop

TOL = 1e-12


def _assert_matches_reference(row, seg_start, seg_end, loop):
    ref = mutual_inductance_to_loop_loop(seg_start, seg_end, loop)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(row - ref)) / scale < TOL


@pytest.fixture(scope="module")
def die():
    return Rect(0, 0, 800 * UM, 800 * UM)


@pytest.fixture(scope="module")
def tech():
    return make_tech180()


def _segments(rng, n):
    s = np.zeros((n, 3))
    s[:, 0] = rng.uniform(0.0, 800 * UM, n)
    s[:, 1] = rng.uniform(0.0, 800 * UM, n)
    e = s.copy()
    half = n // 2
    e[:half, 0] += 25 * UM
    e[half:, 1] += rng.choice([-1.0, 1.0], n - half) * 150 * UM
    return s, e


def _square_loop(cx, cy, half, z=1e-6, jitter=None):
    pts = np.array(
        [
            [cx - half, cy - half, z],
            [cx + half, cy - half, z],
            [cx + half, cy + half, z],
            [cx - half, cy + half, z],
            [cx - half, cy - half, z],
        ]
    )
    if jitter is not None:
        pts = pts + jitter
    return pts


class TestBatchedKernel:
    def test_matches_per_coil_kernel(self, rng):
        # Every row against the per-coil loop reference.
        seg_start, seg_end = _segments(rng, 300)
        loops = [
            _square_loop(
                rng.uniform(100 * UM, 700 * UM),
                rng.uniform(100 * UM, 700 * UM),
                rng.uniform(20 * UM, 80 * UM),
                jitter=rng.normal(scale=0.5 * UM, size=(5, 3)),
            )
            for _ in range(6)
        ]
        batched = mutual_inductance_to_loops(seg_start, seg_end, loops)
        assert batched.shape == (len(loops), len(seg_start))
        for row, loop in zip(batched, loops):
            _assert_matches_reference(row, seg_start, seg_end, loop)

    def test_chunking_does_not_change_results(self, rng, monkeypatch):
        seg_start, seg_end = _segments(rng, 120)
        loops = [
            _square_loop(200 * UM, 200 * UM, 60 * UM),
            _square_loop(600 * UM, 500 * UM, 40 * UM),
        ]
        full = mutual_inductance_to_loops(seg_start, seg_end, loops)
        monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 4096)
        tiny = mutual_inductance_to_loops(seg_start, seg_end, loops)
        assert np.array_equal(tiny, full)

    def test_degenerate_coil_contributes_zero_row(self, rng):
        seg_start, seg_end = _segments(rng, 50)
        live = _square_loop(400 * UM, 400 * UM, 50 * UM)
        # All points coincident: every segment is dropped as zero-length.
        dead = np.tile(np.array([[100 * UM, 100 * UM, 1e-6]]), (4, 1))
        batched = mutual_inductance_to_loops(
            seg_start, seg_end, [dead, live, dead]
        )
        assert np.all(batched[0] == 0.0)
        assert np.all(batched[2] == 0.0)
        _assert_matches_reference(batched[1], seg_start, seg_end, live)

    def test_rejects_malformed_loop(self, rng):
        seg_start, seg_end = _segments(rng, 10)
        with pytest.raises(EmModelError):
            mutual_inductance_to_loops(
                seg_start, seg_end, [np.zeros((1, 3))]
            )
        with pytest.raises(EmModelError):
            mutual_inductance_to_loops(
                seg_start, seg_end, [np.zeros((4, 2))]
            )


class TestSensorArray:
    def test_grid_geometry(self, die, tech):
        array = SensorArray.design_grid(die, tech, rows=2, cols=3)
        assert (array.rows, array.cols) == (2, 3)
        assert len(array.coils) == 6 and len(array.tiles) == 6
        # Row-major, row 0 at the bottom (lowest y).
        assert array.tiles[0].y0 == die.y0 and array.tiles[0].x0 == die.x0
        assert array.tiles[1].x0 > array.tiles[0].x0
        assert array.tiles[3].y0 > array.tiles[0].y0
        for coil, tile in zip(array.coils, array.tiles):
            assert isinstance(coil, OnChipSensor)
            assert tile.contains(*coil.polyline[:, :2].mean(axis=0))

    def test_channel_names_row_major(self, die, tech):
        array = SensorArray.design_grid(die, tech, rows=2, cols=2)
        assert array.channel_names() == [
            "array.r0c0", "array.r0c1", "array.r1c0", "array.r1c1",
        ]

    def test_cell_of_clamps(self, die, tech):
        array = SensorArray.design_grid(die, tech, rows=4, cols=4)
        assert array.cell_of(1 * UM, 1 * UM) == (0, 0)
        assert array.cell_of(799 * UM, 799 * UM) == (3, 3)
        # Outside the die clamps to the nearest edge cell.
        assert array.cell_of(-50 * UM, 900 * UM) == (3, 0)

    def test_rejects_degenerate_grid(self, die, tech):
        with pytest.raises(EmModelError):
            SensorArray.design_grid(die, tech, rows=0, cols=2)
        with pytest.raises(EmModelError):
            SensorArray.design_grid(die, tech, rows=2, cols=-1)

    def test_coupling_matches_per_coil(self, die, tech, rng):
        # All 16 coils of the 4x4 array, each against the loop reference.
        array = SensorArray.design_grid(die, tech, rows=4, cols=4)
        seg_start, seg_end = _segments(rng, 150)
        batched = array.coupling(seg_start, seg_end)
        assert batched.shape == (16, 150)
        for row, coil in zip(batched, array.coils):
            _assert_matches_reference(row, seg_start, seg_end, coil.polyline)
