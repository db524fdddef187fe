"""Equivalence of the vectorised EM kernels with their loop references.

The vectorised :func:`b_field_of_segments` (axis-aligned segments only)
and :func:`mutual_inductance_to_loops` (GEMM distance expansion with
exact recompute of near-coincident pairs for axis-aligned coil
segments, closed-form sides for the others) must agree with the
per-segment loop references in
:mod:`tests.em.reference_kernels` to 1e-12 relative
error — on randomised segments (oblique for the coupling kernel,
axis-aligned in random directions for the field), on power-grid-style axis
geometry, with the distance clamp active, and independently of the
chunk size (:data:`repro.em.chunking.CACHE_CHUNK_BYTES`, shrunk here to
force many chunks).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.em import chunking
from repro.em.biot_savart import b_field_of_segments
from repro.em.chunking import rows_per_chunk
from repro.em.mutual import mutual_inductance_to_loops
from repro.errors import EmModelError
from tests.em.reference_kernels import (
    b_field_of_segments_loop,
    mutual_inductance_to_loop_loop,
)

TOL = 1e-12


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    scale = np.max(np.abs(ref))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - ref)) / scale)


def _grid_segments(rng: np.random.Generator, n: int):
    """Axis-aligned rails/stripes over a 2x2 mm die, like the power grid."""
    s = np.zeros((n, 3))
    s[:, 0] = rng.uniform(0.0, 2e-3, n)
    s[:, 1] = rng.uniform(0.0, 2e-3, n)
    e = s.copy()
    half = n // 2
    e[:half, 0] += 25e-6
    e[half:, 1] += rng.choice([-1.0, 1.0], n - half) * 150e-6
    return s, e, rng.normal(size=n)


def _random_segments(rng: np.random.Generator, n: int):
    s = rng.normal(size=(n, 3)) * 1e-3
    e = s + rng.normal(size=(n, 3)) * 2e-4
    return s, e, rng.normal(size=n)


def _random_axis_segments(rng: np.random.Generator, n: int):
    """Segments along a random axis, either way, of random length."""
    s = rng.normal(size=(n, 3)) * 1e-3
    e = s.copy()
    e[np.arange(n), rng.integers(0, 3, n)] += rng.normal(size=n) * 2e-4
    return s, e, rng.normal(size=n)


def _surface_points(rng: np.random.Generator, n: int, z: float = 10e-6):
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(0.0, 2e-3, n)
    pts[:, 1] = rng.uniform(0.0, 2e-3, n)
    pts[:, 2] = z
    return pts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_biot_savart_matches_loop_random_orientations(seed):
    rng = np.random.default_rng(seed)
    s, e, cur = _random_axis_segments(rng, 300)
    pts = rng.normal(size=(200, 3)) * 1e-3
    got = b_field_of_segments(s, e, cur, pts)
    ref = b_field_of_segments_loop(s, e, cur, pts)
    assert _rel_err(got, ref) <= TOL


@pytest.mark.parametrize("seed", [3, 4])
def test_biot_savart_matches_loop_grid_geometry(seed):
    rng = np.random.default_rng(seed)
    s, e, cur = _grid_segments(rng, 500)
    pts = _surface_points(rng, 300)
    got = b_field_of_segments(s, e, cur, pts)
    ref = b_field_of_segments_loop(s, e, cur, pts)
    assert _rel_err(got, ref) <= TOL


def test_biot_savart_matches_loop_with_clamp_active():
    """Observation points directly on the wires hit the distance floor."""
    rng = np.random.default_rng(5)
    s, e, cur = _grid_segments(rng, 200)
    pts = _surface_points(rng, 150, z=0.0)
    pts[:50] = s[:50]  # points exactly on segment start points
    got = b_field_of_segments(s, e, cur, pts)
    ref = b_field_of_segments_loop(s, e, cur, pts)
    assert _rel_err(got, ref) <= TOL


def test_biot_savart_mixed_orientations_and_degenerate_segments():
    rng = np.random.default_rng(6)
    sa, ea, ca = _grid_segments(rng, 40)
    sr, er, cr = _random_axis_segments(rng, 40)
    sz = np.zeros((10, 3))
    sz[:, 0] = rng.uniform(0, 2e-3, 10)
    ez = sz.copy()
    ez[:, 2] -= 20e-6  # z-aligned vias
    s0 = sr[:5]  # zero-length segments contribute nothing
    s = np.vstack([sa, sr, sz, s0])
    e = np.vstack([ea, er, ez, s0])
    cur = np.concatenate([ca, cr, rng.normal(size=10), rng.normal(size=5)])
    pts = _surface_points(rng, 120)
    got = b_field_of_segments(s, e, cur, pts)
    ref = b_field_of_segments_loop(s, e, cur, pts)
    assert _rel_err(got, ref) <= TOL


def test_biot_savart_rejects_oblique_segments():
    """Field-map sources are Manhattan; an oblique one is a model error."""
    rng = np.random.default_rng(8)
    s, e, cur = _grid_segments(rng, 20)
    e[3] += 1e-6  # tilt one segment off its axis
    with pytest.raises(EmModelError, match="1 segment"):
        b_field_of_segments(s, e, cur, _surface_points(rng, 10))


def test_biot_savart_chunk_size_invariance(monkeypatch):
    rng = np.random.default_rng(7)
    s, e, cur = _grid_segments(rng, 300)
    pts = _surface_points(rng, 200)
    full = b_field_of_segments(s, e, cur, pts)
    monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 64 * 1024)
    tiny_chunks = b_field_of_segments(s, e, cur, pts)
    assert _rel_err(tiny_chunks, full) <= TOL


@pytest.mark.parametrize("seed", [10, 11])
def test_mutual_matches_loop_random_orientations(seed):
    rng = np.random.default_rng(seed)
    s, e, _ = _random_segments(rng, 250)
    theta = np.linspace(0.0, 2.0 * np.pi, 33)
    coil = np.stack(
        [4e-4 * np.cos(theta), 4e-4 * np.sin(theta), np.full(33, 1e-5)],
        axis=1,
    )
    got = mutual_inductance_to_loops(s, e, [coil])[0]
    ref = mutual_inductance_to_loop_loop(s, e, coil)
    assert _rel_err(got, ref) <= TOL


def test_mutual_matches_loop_grid_geometry_with_clamp():
    """Coil in the wire plane forces the min-distance clamp."""
    rng = np.random.default_rng(12)
    s, e, _ = _grid_segments(rng, 300)
    theta = np.linspace(0.0, 2.0 * np.pi, 33)
    coil = np.stack(
        [
            1e-3 + 4e-4 * np.cos(theta),
            1e-3 + 4e-4 * np.sin(theta),
            np.zeros(33),
        ],
        axis=1,
    )
    got = mutual_inductance_to_loops(s, e, [coil])[0]
    ref = mutual_inductance_to_loop_loop(s, e, coil)
    assert _rel_err(got, ref) <= TOL


def test_mutual_chunk_size_invariance(monkeypatch):
    rng = np.random.default_rng(13)
    s, e, _ = _grid_segments(rng, 200)
    theta = np.linspace(0.0, 2.0 * np.pi, 17)
    coil = np.stack(
        [
            1e-3 + 3e-4 * np.cos(theta),
            1e-3 + 3e-4 * np.sin(theta),
            np.full(17, 1e-5),
        ],
        axis=1,
    )
    full = mutual_inductance_to_loops(s, e, [coil])
    monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 32 * 1024)
    assert rows_per_chunk(6 * 8 * 4 * 16 * 4) < 20  # many chunks
    tiny = mutual_inductance_to_loops(s, e, [coil])
    assert np.array_equal(tiny, full)


def _mixed_sources(rng: np.random.Generator):
    """x, y, z, diagonal and zero-length source segments, interleaved."""
    sg, eg, _ = _grid_segments(rng, 80)
    sz = np.zeros((12, 3))
    sz[:, :2] = rng.uniform(0.5e-3, 1.5e-3, (12, 2))
    ez = sz + [0.0, 0.0, 20e-6]
    sd, ed, _ = _random_segments(rng, 30)
    s = np.vstack([sg, sz, sd, sd[:5]])
    e = np.vstack([eg, ez, ed, sd[:5]])
    order = rng.permutation(len(s))
    return s[order], e[order]


def _mixed_coils() -> dict[str, np.ndarray]:
    theta = np.linspace(0.0, 2.0 * np.pi, 25)
    z = np.full(25, 8e-6)
    return {
        "manhattan": np.array(
            [[0.6e-3, 0.6e-3, 8e-6], [1.4e-3, 0.6e-3, 8e-6],
             [1.4e-3, 1.4e-3, 8e-6], [0.6e-3, 1.4e-3, 8e-6],
             [0.6e-3, 0.7e-3, 8e-6]]
        ),
        "circular": np.stack(
            [1e-3 + 4e-4 * np.cos(theta), 1e-3 + 4e-4 * np.sin(theta), z],
            axis=1,
        ),
        "diagonal": np.array(
            [[1e-3, 0.5e-3, 8e-6], [1.5e-3, 1e-3, 8e-6],
             [1e-3, 1.5e-3, 12e-6], [0.5e-3, 1e-3, 8e-6],
             [1e-3, 0.5e-3, 8e-6]]
        ),
        # z-directed only: orthogonal to every x and y source.
        "vertical": np.array(
            [[1e-3, 1e-3, 5e-6], [1e-3, 1e-3, 35e-6], [1e-3, 1e-3, 60e-6]]
        ),
    }


@pytest.mark.parametrize(
    "names",
    [("manhattan",), ("circular",), ("diagonal",), ("vertical",),
     ("manhattan", "circular", "diagonal", "vertical")],
)
def test_mutual_matches_loop_on_mixed_geometry(names):
    rng = np.random.default_rng(14)
    s, e = _mixed_sources(rng)
    coils = [_mixed_coils()[name] for name in names]
    got = mutual_inductance_to_loops(s, e, coils)
    for row, coil in zip(got, coils):
        assert _rel_err(row, mutual_inductance_to_loop_loop(s, e, coil)) <= TOL


def test_mutual_orthogonal_coil_couples_exactly_nothing():
    """A coil made only of segments orthogonal to every source."""
    rng = np.random.default_rng(15)
    s, e, _ = _grid_segments(rng, 50)
    got = mutual_inductance_to_loops(s, e, [_mixed_coils()["vertical"]])
    assert np.array_equal(got, np.zeros((1, 50)))


def test_mutual_mixed_geometry_chunk_invariance(monkeypatch):
    rng = np.random.default_rng(16)
    s, e = _mixed_sources(rng)
    coils = list(_mixed_coils().values())
    full = mutual_inductance_to_loops(s, e, coils)
    monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 16 * 1024)
    assert np.array_equal(mutual_inductance_to_loops(s, e, coils), full)


def test_mutual_working_set_is_bounded_by_the_chunk(monkeypatch):
    """No temporary of the kernel grows with (sources x coil segments).

    Against a circular coil every source meets every coil segment; one
    full ``(N, C)`` matrix of dot products would be 6.4 MB here, while
    the chunked working set stays within a few chunks.
    """
    rng = np.random.default_rng(18)
    s, e, _ = _grid_segments(rng, 4000)
    theta = np.linspace(0.0, 2.0 * np.pi, 201)
    coil = np.stack(
        [
            1e-3 + 4e-4 * np.cos(theta),
            1e-3 + 4e-4 * np.sin(theta),
            np.full(201, 8e-6),
        ],
        axis=1,
    )
    monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 256 * 1024)
    tracemalloc.start()
    try:
        mutual_inductance_to_loops(s, e, [coil])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * 1024

def test_chunk_env_var_override(monkeypatch):
    # REPRO_EM_CHUNK_MB is retired: the chunk size is the module constant
    # alone, whatever the environment says.
    rng = np.random.default_rng(17)
    s, e, cur = _grid_segments(rng, 120)
    pts = _surface_points(rng, 9)
    monkeypatch.delenv("REPRO_EM_CHUNK_MB", raising=False)
    rows = rows_per_chunk(1024)
    field = b_field_of_segments(s, e, cur, pts)
    for raw in ("2", "not-a-number", "0"):
        monkeypatch.setenv("REPRO_EM_CHUNK_MB", raw)
        assert rows_per_chunk(1024) == rows
        assert np.array_equal(b_field_of_segments(s, e, cur, pts), field)


def test_rows_per_chunk_floors_and_targets(monkeypatch):
    assert rows_per_chunk(10**12) == 1  # never below one row
    assert rows_per_chunk(0) == chunking.CACHE_CHUNK_BYTES
    assert rows_per_chunk(1024) == chunking.CACHE_CHUNK_BYTES // 1024
    # The chunk constant is read at call time, so shrinking it (as the
    # chunk-invariance tests do) shrinks every kernel's chunks.
    monkeypatch.setattr(chunking, "CACHE_CHUNK_BYTES", 64 * 1024)
    assert rows_per_chunk(1024) == 64
