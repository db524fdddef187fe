"""Loop references for the vectorised EM kernels.

:func:`b_field_of_segments_loop` walks the source segments one at a
time and :func:`mutual_inductance_to_loop_loop` walks one coil's
segments one at a time — the plain per-element forms of
:func:`repro.em.biot_savart.b_field_of_segments` and of one row of
:func:`repro.em.mutual.mutual_inductance_to_loops`.  The kernel tests
check the vectorised kernels against them to 1e-12 relative error, and
``benchmarks/bench_perf_kernels.py`` times them as the baseline.
:func:`flux_through_polygon` integrates the Biot–Savart field over a
planar coil, an independent physical check of the Neumann kernel.
"""

from __future__ import annotations

import math

import numpy as np

from repro.em.biot_savart import b_field_of_segments
from repro.em.mutual import _gauss01
from repro.errors import EmModelError
from repro.units import MU_0, UM


def b_field_of_segments_loop(
    seg_start: np.ndarray,
    seg_end: np.ndarray,
    currents: np.ndarray,
    points: np.ndarray,
    min_distance: float = 0.1 * UM,
) -> np.ndarray:
    """Flux density at *points*, one source segment per iteration."""
    a = np.asarray(seg_start, dtype=np.float64)
    b = np.asarray(seg_end, dtype=np.float64)
    i_seg = np.asarray(currents, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)

    field = np.zeros_like(pts)
    axis = b - a  # (N, 3)
    length = np.linalg.norm(axis, axis=1)
    ok = length > 0
    for idx in np.nonzero(ok)[0]:
        u = axis[idx] / length[idx]
        ap = pts - a[idx]  # (P, 3)
        proj = ap @ u  # (P,)
        radial = ap - proj[:, None] * u[None, :]
        d = np.linalg.norm(radial, axis=1)
        d = np.maximum(d, min_distance)
        bp_proj = proj - length[idx]
        ra = np.sqrt(proj**2 + d**2)
        rb = np.sqrt(bp_proj**2 + d**2)
        cos1 = proj / ra
        cos2 = bp_proj / rb
        magnitude = MU_0 * i_seg[idx] / (4.0 * math.pi * d) * (cos1 - cos2)
        phi = np.cross(np.broadcast_to(u, radial.shape), radial)
        norm = np.linalg.norm(phi, axis=1)
        safe = norm > 0
        phi[safe] /= norm[safe, None]
        field += magnitude[:, None] * phi
    return field


def mutual_inductance_to_loop_loop(
    seg_start: np.ndarray,
    seg_end: np.ndarray,
    loop_points: np.ndarray,
    n_quad: int = 4,
    min_distance: float = 0.5 * UM,
    exact_sides: bool = True,
) -> np.ndarray:
    """Segment-to-loop mutual inductance, one coil segment per iteration.

    Like the production kernel, a coil segment that is not axis-aligned
    is integrated in closed form along its length and by *n_quad*-point
    Gauss–Legendre along the sources.  ``exact_sides=False`` takes the
    tensor-product Gauss rule for every coil segment instead: at a high
    order, the independent accuracy reference for that closed form.
    """
    s0 = np.asarray(seg_start, dtype=np.float64)
    s1 = np.asarray(seg_end, dtype=np.float64)
    loop = np.asarray(loop_points, dtype=np.float64)

    u, w = _gauss01(n_quad)
    n_src = s0.shape[0]
    result = np.zeros(n_src)
    if n_src == 0:
        return result

    d_src = s1 - s0  # (N, 3), includes length
    p_src = s0[:, None, :] + u[None, :, None] * d_src[:, None, :]

    c0_all, c1_all = loop[:-1], loop[1:]
    for c0, c1 in zip(c0_all, c1_all):
        d_coil = c1 - c0
        coil_len = float(np.linalg.norm(d_coil))
        if coil_len == 0.0:
            continue
        dots = d_src @ d_coil  # (N,)
        active = np.abs(dots) > 0.0
        if not active.any():
            continue
        if exact_sides and np.count_nonzero(d_coil) != 1:
            # Inner integral of 1/r along the side: ln((Ra+Rb+L)/(Ra+Rb-L)).
            r_a = np.linalg.norm(p_src[active] - c0, axis=-1)  # (n_active, A)
            r_b = np.linalg.norm(p_src[active] - c1, axis=-1)
            gap = np.maximum(
                r_a + r_b - coil_len, 2.0 * min_distance**2 / coil_len
            )
            kernel = (w * np.log1p(2.0 * coil_len / gap)).sum(axis=1)
            result[active] += dots[active] / coil_len * kernel
            continue
        p_coil = c0[None, :] + u[:, None] * d_coil[None, :]  # (B, 3)
        diff = p_src[active][:, :, None, :] - p_coil[None, None, :, :]
        dist = np.linalg.norm(diff, axis=-1)  # (n_active, A, B)
        np.maximum(dist, min_distance, out=dist)
        kernel = (w[None, :, None] * w[None, None, :] / dist).sum(axis=(1, 2))
        result[active] += dots[active] * kernel
    return MU_0 / (4.0 * math.pi) * result


def flux_through_polygon(
    seg_start: np.ndarray,
    seg_end: np.ndarray,
    currents: np.ndarray,
    polygon: np.ndarray,
    grid: int = 24,
) -> float:
    """Magnetic flux through a planar polygon (z = const), by quadrature.

    A brute-force check of the Neumann solver: discretise the polygon's
    bounding box, evaluate Bz at interior points, sum.  O(grid² ·
    segments).
    """
    poly = np.asarray(polygon, dtype=np.float64)
    if poly.ndim != 2 or poly.shape[1] != 3:
        raise EmModelError(f"polygon must be (M, 3), got {poly.shape}")
    z = float(poly[0, 2])
    if not np.allclose(poly[:, 2], z):
        raise EmModelError("polygon must be planar in z")
    xs = np.linspace(poly[:, 0].min(), poly[:, 0].max(), grid + 1)
    ys = np.linspace(poly[:, 1].min(), poly[:, 1].max(), grid + 1)
    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    gx, gy = np.meshgrid(xc, yc)
    pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1)

    inside = _points_in_polygon(pts[:, 0], pts[:, 1], poly[:, 0], poly[:, 1])
    if not inside.any():
        return 0.0
    field = b_field_of_segments(seg_start, seg_end, currents, pts[inside])
    return float(field[:, 2].sum() * cell)


def _points_in_polygon(
    px: np.ndarray, py: np.ndarray, vx: np.ndarray, vy: np.ndarray
) -> np.ndarray:
    """Vectorised even-odd point-in-polygon test."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(vx)
    j = n - 1
    for i in range(n):
        crosses = (vy[i] > py) != (vy[j] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = (vx[j] - vx[i]) * (py - vy[i]) / (vy[j] - vy[i]) + vx[i]
        inside ^= crosses & (px < x_int)
        j = i
    return inside
