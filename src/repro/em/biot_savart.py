"""Biot–Savart field of finite straight segments.

Direct field evaluation, used to render surface field maps of the die
("EM leakage from every point of the IC's surface", paper Section
IV-A).  The tests also integrate it over a coil to cross-check the
Neumann mutual-inductance solver.
"""

from __future__ import annotations

import math

import numpy as np

from repro.em.chunking import rows_per_chunk
from repro.errors import EmModelError
from repro.units import MU_0, UM

_BIOT_PREFACTOR = MU_0 / (4.0 * math.pi)


def b_field_of_segments(
    seg_start: np.ndarray,
    seg_end: np.ndarray,
    currents: np.ndarray,
    points: np.ndarray,
    min_distance: float = 0.1 * UM,
) -> np.ndarray:
    """Magnetic flux density at *points* from current-carrying segments.

    Uses the exact finite-wire solution

    .. math::

        \\vec B = \\frac{\\mu_0 I}{4\\pi d}
                  (\\cos\\alpha_1 - \\cos\\alpha_2)\\; \\hat\\phi

    with the angles measured from the segment axis at its two ends.

    All segments are evaluated against all points by ``(S, P)``
    broadcasting, walking the segment axis in cache-sized chunks so a
    full-die field map (thousands of power-grid segments × thousands of
    surface points) never materialises the complete ``(N, P, 3)``
    tensor.  Every segment must lie along a coordinate axis (the power
    grid is Manhattan), so the kernel works directly on the two
    transverse coordinate planes: no 3-vector temporaries, no cross
    products, and one field component known to vanish.

    Parameters
    ----------
    seg_start, seg_end:
        Segments, shape ``(N, 3)`` [m].
    currents:
        Signed current per segment, shape ``(N,)`` [A].
    points:
        Observation points, shape ``(P, 3)`` [m].
    min_distance:
        Radial floor [m] to avoid the on-axis singularity.

    Returns
    -------
    numpy.ndarray
        Field vectors, shape ``(P, 3)`` [T].

    Raises
    ------
    EmModelError
        On malformed shapes or a segment that is not axis-aligned.
    """
    a = np.asarray(seg_start, dtype=np.float64)
    b = np.asarray(seg_end, dtype=np.float64)
    i_seg = np.asarray(currents, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise EmModelError(f"segments must be (N, 3); got {a.shape}, {b.shape}")
    if i_seg.shape != (a.shape[0],):
        raise EmModelError(
            f"currents shape {i_seg.shape} does not match {a.shape[0]} segments"
        )
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise EmModelError(f"points must be (P, 3), got {pts.shape}")

    field = np.zeros_like(pts)
    axis = b - a  # (N, 3)
    length = np.linalg.norm(axis, axis=1)
    ok = length > 0
    if not ok.any() or pts.shape[0] == 0:
        return field
    a, axis, length, i_seg = a[ok], axis[ok], length[ok], i_seg[ok]

    # Every source is a Manhattan grid segment: it lies on one
    # coordinate axis, and the field works on the two transverse planes.
    aligned = np.count_nonzero(axis, axis=1) == 1
    if not aligned.all():
        raise EmModelError(
            f"{np.count_nonzero(~aligned)} segment(s) are not axis-aligned; "
            "only Manhattan sources are supported"
        )
    for k in range(3):
        sel = axis[:, k] != 0.0
        if sel.any():
            _b_axis_aligned(
                a[sel],
                length[sel],
                np.sign(axis[sel, k]),
                i_seg[sel],
                pts,
                k,
                min_distance,
                field,
            )
    return field


def _b_axis_aligned(
    a: np.ndarray,
    length: np.ndarray,
    sign: np.ndarray,
    i_seg: np.ndarray,
    pts: np.ndarray,
    k: int,
    min_distance: float,
    field: np.ndarray,
) -> None:
    """Accumulate the field of segments parallel to coordinate axis *k*.

    With ``u = sign * e_k`` the radial separation lives entirely in the
    ``(j, l)`` plane, so the whole computation runs on ``(S, P)`` scalar
    planes: ``u x ap = sign * (ap_j e_l - ap_l e_j)`` and the field
    picks up no component along the segment axis.
    """
    j, l = (k + 1) % 3, (k + 2) % 3
    pk, pj, pl = pts[:, k], pts[:, j], pts[:, l]
    md2 = min_distance * min_distance
    amp = (_BIOT_PREFACTOR * i_seg * sign)[:, None]

    # ~10 (S, P)-sized float64 temporaries live at once per chunk.
    step = rows_per_chunk(10 * 8 * pts.shape[0])
    for lo in range(0, a.shape[0], step):
        hi = lo + step
        sg = sign[lo:hi, None]
        proj = pk[None, :] - a[lo:hi, k, None]
        proj *= sg
        dj = pj[None, :] - a[lo:hi, j, None]
        dl = pl[None, :] - a[lo:hi, l, None]
        d2 = dj * dj
        d2 += dl * dl
        clamped = d2 < md2
        any_clamped = bool(clamped.any())
        if any_clamped:
            np.maximum(d2, md2, out=d2)
        ra = proj * proj
        ra += d2
        np.sqrt(ra, out=ra)
        bp = proj - length[lo:hi, None]
        rb = bp * bp
        rb += d2
        np.sqrt(rb, out=rb)
        # fac = (cos a1 - cos a2) / (d_clamped * d_raw): the clamped
        # distance feeds the magnitude, the raw distance normalises
        # u x ap to the unit azimuthal direction.
        fac = proj / ra
        fac -= bp / rb
        if any_clamped:
            si, pi = np.nonzero(clamped)
            draw = np.sqrt(dj[si, pi] ** 2 + dl[si, pi] ** 2)
            on_axis = draw == 0.0
            draw[on_axis] = np.inf  # zero azimuthal direction => no field
            fac[si, pi] /= min_distance * draw
            unc = ~clamped
            fac[unc] /= d2[unc]
        else:
            fac /= d2
        fac *= amp[lo:hi]
        field[:, j] -= np.einsum("sp,sp->p", fac, dl)
        field[:, l] += np.einsum("sp,sp->p", fac, dj)
