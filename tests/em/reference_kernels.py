"""Loop references for the vectorised EM kernels.

:func:`b_field_of_segments_loop` walks the source segments one at a
time and :func:`mutual_inductance_to_loop_loop` walks the coil
segments one at a time — the plain per-element forms of
:func:`repro.em.biot_savart.b_field_of_segments` and
:func:`repro.em.mutual.mutual_inductance_to_loop`.  The kernel tests
check the vectorised kernels against them to 1e-12 relative error, and
``benchmarks/bench_perf_kernels.py`` times them as the baseline.
"""

from __future__ import annotations

import math

import numpy as np

from repro.em.mutual import _gauss01
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
) -> np.ndarray:
    """Segment-to-loop mutual inductance, one coil segment per iteration."""
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
        p_coil = c0[None, :] + u[:, None] * d_coil[None, :]  # (B, 3)
        diff = p_src[active][:, :, None, :] - p_coil[None, None, :, :]
        dist = np.linalg.norm(diff, axis=-1)  # (n_active, A, B)
        np.maximum(dist, min_distance, out=dist)
        kernel = (w[None, :, None] * w[None, None, :] / dist).sum(axis=(1, 2))
        result[active] += dots[active] * kernel
    return MU_0 / (4.0 * math.pi) * result
