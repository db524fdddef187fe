"""Partial mutual inductance between wire segments and coils.

PEEC-style Neumann double integral: for a straight source segment *s*
and a straight coil segment *c*,

.. math::

    M_{sc} = \\frac{\\mu_0}{4\\pi}
             \\int_s \\int_c \\frac{d\\vec l_s \\cdot d\\vec l_c}{r}

evaluated with Gauss–Legendre quadrature along the source segment.
Summing over a coil's segments gives each power-grid segment's
coupling to the whole coil; the induced emf is then ``-M_s * dI_s/dt``
summed over segments.

:func:`mutual_inductance_to_loops` is the one kernel every receiver
uses: the on-chip spiral passes its single polyline, the external
probe its stacked turns (summing the rows), and the sensor array its
coils.  ``tests/em/reference_kernels.py`` holds the per-coil-segment
loop it must match.

The coil side is integrated one of two ways:

* **Axis-aligned coil segments** (the spirals and the array coils)
  take a tensor-product Gauss–Legendre rule on both sides, matching
  the loop reference to 1e-12.  Perpendicular segments contribute
  nothing: their dot product is exactly zero.  The power grid and the
  spirals are Manhattan, so the kernel groups the source segments by
  axis and integrates each group only against the coil segments on
  its own axis (:func:`_parallel_groups`); the skipped pairs stay
  exact zeros in each coil's sum, so the output is byte-equal to
  integrating every pair.  Over the seed-1 chip's power grid this cut
  a 4x4 array's coupling from 345 to 163 ms and the spiral's from 89
  to 42 ms (``benchmarks/bench_perf_kernels.py``, 2-vCPU Xeon host,
  one BLAS thread).
* **Any other coil segment** (the probe's circular turns) is
  integrated exactly (:func:`_straight_sides`): the inner integral of
  ``1/r`` along a straight side from ``a`` to ``b`` of length ``L`` is
  ``ln((R_a + R_b + L) / (R_a + R_b - L))``, with ``R_a`` and ``R_b``
  the distances to the side's ends.  Only the source side keeps a
  Gauss rule; the probe takes two points (:data:`repro.em.probe.
  PROBE_QUADRATURE`), which puts each turn within 8.3e-10 of its peak
  coupling to the seed-1 grid from 100 µm above the die, where the
  all-pairs 3x3 Gauss group it replaced was within 3.1e-7.
"""

from __future__ import annotations

import math

import numpy as np

from repro.em.chunking import rows_per_chunk
from repro.errors import EmModelError
from repro.units import MU_0, UM


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes/weights transformed to [0, 1]."""
    if n < 1:
        raise EmModelError(f"quadrature order must be >= 1, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _axis_of(d: np.ndarray) -> np.ndarray:
    """Axis (0, 1, 2) of each segment direction in *d*, or -1 for a
    segment that is not axis-aligned (diagonal or zero-length)."""
    nonzero = d != 0.0
    return np.where(nonzero.sum(axis=1) == 1, nonzero.argmax(axis=1), -1)


def _parallel_groups(
    d_src: np.ndarray, coil_axis: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(source rows, coil columns)`` pairs covering every pair of a
    source and an axis-aligned coil segment whose dot product can be
    nonzero.

    The sources along one axis meet only the coil segments along that
    axis; every other axis-aligned pair has a dot product of exactly
    zero.  Sources for which that skips nothing (any source against a
    coil whose aligned segments all share its axis, or a source that is
    not axis-aligned) share one group over every aligned column, and
    sources that meet no coil segment at all get none.
    """
    src_axis = _axis_of(d_src)
    aligned = coil_axis >= 0
    every = np.ones(d_src.shape[0], dtype=bool)
    groups = []
    for axis in range(3):
        rows = src_axis == axis
        cols = coil_axis == axis
        if np.array_equal(cols, aligned) or not rows.any():
            continue
        every &= ~rows
        if cols.any():
            groups.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    if every.any():
        groups.append((np.flatnonzero(every), np.flatnonzero(aligned)))
    return groups


def mutual_inductance_to_loops(
    seg_start: np.ndarray,
    seg_end: np.ndarray,
    loops: "list[np.ndarray] | tuple[np.ndarray, ...]",
    n_quad: int = 4,
    min_distance: float = 0.5 * UM,
) -> np.ndarray:
    """Mutual inductance of each source segment to *each* coil polyline.

    All coils' segments are concatenated, and the per-coil sums fall
    out of one ``reduceat`` over the coil boundaries.  The axis-aligned
    coil segments go through :func:`_gauss_pairs`, every other one
    through :func:`_straight_sides`; both walk the sources in chunks of
    :data:`~repro.em.chunking.CACHE_CHUNK_BYTES` and give the same bits
    whatever the chunk size.

    Parameters
    ----------
    seg_start, seg_end:
        Source segments, shape ``(N, 3)`` each [m].
    loops:
        Sequence of coil polylines, each shape ``(M_k, 3)``;
        consecutive vertices form the coil segments (a polyline need
        not be closed — an on-chip spiral is open and its pads close
        the circuit).
    n_quad:
        Gauss–Legendre order along each source segment, and along each
        axis-aligned coil segment.
    min_distance:
        Distance floor [m] guarding the 1/r kernel where a coil trace
        crosses directly over a grid wire.

    Returns
    -------
    numpy.ndarray
        Coupling tensor, shape ``(len(loops), N)`` [H].
    """
    s0 = np.asarray(seg_start, dtype=np.float64)
    s1 = np.asarray(seg_end, dtype=np.float64)
    if s0.shape != s1.shape or s0.ndim != 2 or s0.shape[1] != 3:
        raise EmModelError(
            f"segment arrays must both be (N, 3); got {s0.shape} and {s1.shape}"
        )
    if len(loops) == 0:
        raise EmModelError("mutual_inductance_to_loops needs at least one loop")
    if min_distance <= 0:
        raise EmModelError(f"min_distance must be positive, got {min_distance}")

    _gauss01(n_quad)  # rejects a bad order before any work
    n_src = s0.shape[0]
    n_loops = len(loops)
    result = np.zeros((n_loops, n_src))
    if n_src == 0:
        return result

    # Concatenate every coil's segments, remembering which coil each
    # belongs to so reduceat can split the per-segment sums back out.
    c0_parts: list[np.ndarray] = []
    c1_parts: list[np.ndarray] = []
    counts = np.zeros(n_loops, dtype=np.intp)
    for k, loop_points in enumerate(loops):
        loop = np.asarray(loop_points, dtype=np.float64)
        if loop.ndim != 2 or loop.shape[1] != 3 or loop.shape[0] < 2:
            raise EmModelError(
                f"loop polyline {k} must be (M>=2, 3), got {loop.shape}"
            )
        c0, c1 = loop[:-1], loop[1:]
        keep = np.linalg.norm(c1 - c0, axis=1) > 0
        counts[k] = keep.sum()
        c0_parts.append(c0[keep])
        c1_parts.append(c1[keep])
    n_coil = int(counts.sum())
    if n_coil == 0:
        return result
    # Degenerate (all-zero-length) coils would break the reduceat
    # boundaries, so batch only the live ones and scatter rows back.
    live = np.nonzero(counts > 0)[0]
    c0_all = np.concatenate([c0_parts[k] for k in live], axis=0)
    c1_all = np.concatenate([c1_parts[k] for k in live], axis=0)
    coil_of = np.repeat(live, counts[live])
    coil_axis = _axis_of(c1_all - c0_all)
    aligned = coil_axis >= 0
    if aligned.any():
        _gauss_pairs(
            result, s0, s1, c0_all, c1_all, coil_axis, coil_of, n_quad,
            min_distance,
        )
    if not aligned.all():
        _straight_sides(
            result, s0, s1, c0_all, c1_all, np.flatnonzero(~aligned),
            coil_of, n_quad, min_distance,
        )
    return MU_0 / (4.0 * math.pi) * result


def _gauss_pairs(
    result: np.ndarray,
    s0: np.ndarray,
    s1: np.ndarray,
    c0_all: np.ndarray,
    c1_all: np.ndarray,
    coil_axis: np.ndarray,
    coil_of: np.ndarray,
    n_quad: int,
    min_distance: float,
) -> None:
    """Store the axis-aligned coil segments' couplings in *result*
    (``(n_loops, n_src)``, before the ``mu_0 / 4 pi`` factor).

    Every source chunk of a parallel group needs a single ``(S*A, 3) @
    (3, C_g*B)`` product regardless of how many coils there are.  The
    pairwise quadrature-point distances come from that product via the
    expansion ``|p - q|^2 = |p|^2 - 2 p.q + |q|^2`` (coordinates
    centred first).  Pairs close enough for the expansion to cancel
    catastrophically are recomputed exactly from the original
    coordinates, so accuracy matches the direct difference tensor.
    """
    u, w = _gauss01(n_quad)
    n_coil = c0_all.shape[0]
    d_all = c1_all - c0_all
    d_src = s1 - s0
    starts = np.flatnonzero(np.r_[True, coil_of[1:] != coil_of[:-1]])
    coils = coil_of[starts]
    n_a = u.size
    p_coil = (
        c0_all[:, None, :] + u[None, :, None] * d_all[:, None, :]
    ).reshape(n_coil * n_a, 3)
    ww = w[:, None] * w[None, :]  # (A, B)

    # Centre the coordinates so |p|^2 - 2 p.q + |q|^2 cancels as little
    # as possible, but keep the originals for the exact recompute of
    # near-coincident pairs.
    center = 0.5 * (p_coil.min(axis=0) + p_coil.max(axis=0))
    pc = p_coil - center
    pc2 = np.einsum("ij,ij->i", pc, pc)
    pc_t2 = -2.0 * pc.T
    md2 = min_distance * min_distance
    p_src_all = (
        s0[:, None, :] + u[None, :, None] * d_src[:, None, :]
    ).reshape(-1, 3)
    ps_all = p_src_all - center
    ps2_all = np.einsum("ij,ij->i", ps_all, ps_all)
    # The expansion loses ~eps * scale^2 absolute accuracy; pairs whose
    # separation is comparable to that noise floor (or to the clamp
    # radius) are redone with the direct difference.  The scale spans
    # the whole source cloud, so no pair's treatment (and no output
    # bit) depends on the chunk it falls in.
    scale2 = max(ps2_all.max(), pc2.max(initial=0.0))
    thresh = max(md2, 1e-3 * scale2)

    a_idx = np.arange(n_a)
    for rows, cols in _parallel_groups(d_src, coil_axis):
        q_coil = (cols[:, None] * n_a + a_idx).ravel()
        pc_t2_g, pc2_g, p_coil_g = pc_t2[:, q_coil], pc2[q_coil], p_coil[q_coil]
        d_cols = d_all[cols]
        # ~6 (S*A, C_g*B)-sized float64 values plus one (S, C_tot)
        # scatter row live at once per source row; every temporary,
        # the dot products included, is sized by the chunk.
        step = rows_per_chunk(8 * (6 * n_a * cols.size * n_a + n_coil))
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            qs = (chunk[:, None] * n_a + a_idx).ravel()
            d2 = ps_all[qs] @ pc_t2_g
            d2 += ps2_all[qs, None]
            d2 += pc2_g[None, :]
            risky = np.flatnonzero(d2 < thresh)
            if risky.size:
                ri, ci = np.divmod(risky, d2.shape[1])
                diff = p_src_all[qs[ri]] - p_coil_g[ci]
                d2.ravel()[risky] = np.einsum("ij,ij->i", diff, diff)
            np.maximum(d2, md2, out=d2)
            np.sqrt(d2, out=d2)
            np.divide(1.0, d2, out=d2)
            kernel = np.einsum(
                "ab,sacb->sc", ww, d2.reshape(-1, n_a, cols.size, n_a)
            )
            # Dot products term by term: unlike a BLAS product, each
            # one rounds the same whatever the chunk's row count.
            ds = d_src[chunk]
            dots = ds[:, :1] * d_cols[:, 0] + ds[:, 1:2] * d_cols[:, 1]
            dots += ds[:, 2:] * d_cols[:, 2]
            # Orthogonal pairs stay exact zeros, so each coil's sum runs
            # over the same columns in the same order as an all-pairs sum.
            contrib = np.zeros((chunk.size, n_coil))
            contrib[:, cols] = dots * kernel
            per_loop = np.add.reduceat(contrib, starts, axis=1)
            result[np.ix_(coils, chunk)] = per_loop.T


def _straight_sides(
    result: np.ndarray,
    s0: np.ndarray,
    s1: np.ndarray,
    c0_all: np.ndarray,
    c1_all: np.ndarray,
    cols: np.ndarray,
    coil_of: np.ndarray,
    n_quad: int,
    min_distance: float,
) -> None:
    """Add the couplings of coil segments *cols* to *result*, each side
    integrated in closed form and each source by Gauss–Legendre.

    For a source node ``p`` and a side from ``a`` to ``b`` with unit
    direction ``t``, the side's integral is ``t * log1p(2L / (R_a + R_b
    - L))``.  ``R_a + R_b - L`` is floored at ``2 min_distance^2 / L``,
    its value for a node *min_distance* from the side's midpoint, which
    keeps the logarithm finite for a node on the side.

    The distances are taken once per node to a grid of the sides'
    distinct (x, y) positions by their distinct heights.  Stacked
    planar turns, like the probe's, share their (x, y) vertices, so
    that grid is exactly their set of ends, and the horizontal offsets
    are squared once per position and the vertical ones once per
    height.

    The source nodes sit symmetrically about the segment's midpoint, so
    a reversed source meets the same nodes in reverse order; with the
    two-point rule, whose weights are equal, its coupling flips sign
    exactly.  Every step is elementwise or sums one source's column in
    a fixed order, so the output does not depend on the chunk size.
    """
    x, w = np.polynomial.legendre.leggauss(n_quad)
    half_w = 0.5 * w
    n_x = x.size
    a, b = c0_all[cols], c1_all[cols]
    ends = np.concatenate([a, b])
    plan, i_xy = np.unique(ends[:, :2], axis=0, return_inverse=True)
    heights, i_z = np.unique(ends[:, 2], return_inverse=True)
    ia, ib = np.split(i_xy.ravel() * heights.size + i_z.ravel(), 2)
    length = np.linalg.norm(b - a, axis=1)
    unit = (b - a) / length[:, None]
    floor = 2.0 * min_distance * min_distance / length
    twice = 2.0 * length
    side_coil = coil_of[cols]
    starts = np.flatnonzero(np.r_[True, side_coil[1:] != side_coil[:-1]])
    coils = side_coil[starts]
    mid = 0.5 * (s0 + s1)
    half = 0.5 * (s1 - s0)
    d_src = s1 - s0

    n_side, n_end = cols.size, plan.shape[0] * heights.size
    step = rows_per_chunk(8 * (n_x * (n_end + 3 * n_side) + 3 * n_side))
    src_axis = _axis_of(d_src)
    # Sides and ends run along the rows, the chunk's source nodes along
    # the columns (node i of every source, then node i + 1), so every
    # step below streams over whole rows.
    for axis in (0, 1, 2, -1):
        rows = np.flatnonzero(src_axis == axis)
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            nodes = mid[chunk] + x[:, None, None] * half[chunk]
            nodes = nodes.reshape(-1, 3).T
            flat = plan[:, :1] - nodes[0]
            flat *= flat
            dy = plan[:, 1:] - nodes[1]
            dy *= dy
            flat += dy
            dz = heights[:, None] - nodes[2]
            dz *= dz
            r = flat[:, None, :] + dz[None, :, :]
            np.sqrt(r, out=r)
            r = r.reshape(n_end, -1)
            gap = np.take(r, ia, axis=0)
            gap += np.take(r, ib, axis=0)
            gap -= length[:, None]
            np.maximum(gap, floor[:, None], out=gap)
            np.divide(twice[:, None], gap, out=gap)
            np.log1p(gap, out=gap)
            logs = gap.reshape(n_side, n_x, chunk.size)
            kernel = half_w[0] * logs[:, 0]
            for i in range(1, n_x):
                kernel += half_w[i] * logs[:, i]
            # Dot products term by term, as in _gauss_pairs; a source
            # along one axis has one nonzero term.
            ds = d_src[chunk].T
            if axis >= 0:
                kernel *= unit[:, axis, None] * ds[axis]
            else:
                dots = unit[:, :1] * ds[0] + unit[:, 1:2] * ds[1]
                dots += unit[:, 2:] * ds[2]
                kernel *= dots
            result[np.ix_(coils, chunk)] += np.add.reduceat(kernel, starts)
