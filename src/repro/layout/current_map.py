"""Cell-position → power-grid current-path mapping.

For every placed cell, its switching current is assumed to flow from
the nearest pad edge down the nearest VDD stripe, along the row's VDD
rail to the cell, and back along the VSS rail and stripe.  Each
traversed tile of the :class:`~repro.layout.power_grid.PowerGrid`
receives a signed unit entry in a sparse ``(n_segments, n_cells)``
matrix; multiplying the per-segment EM coupling vector by this matrix
yields the single per-cell coupling weight that makes trace synthesis a
cheap reduction (see :mod:`repro.em.coupling`).

A cell's path is four arithmetic runs of tile indices — rail pairs,
stripe pairs, VDD ring, VSS ring — so the whole matrix is built with
whole-array numpy: every entry's position follows from the per-cell run
lengths, and the entries are written straight into preallocated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import LayoutError
from repro.layout.power_grid import PowerGrid


@dataclass
class CurrentMap:
    """Sparse signed mapping from cell currents to segment currents."""

    matrix: sparse.csr_matrix  # (n_segments, n_cells)
    grid: PowerGrid

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[1]

    def cell_weights(self, segment_coupling: np.ndarray) -> np.ndarray:
        """Fold per-segment couplings into per-cell weights.

        ``segment_coupling`` has shape ``(n_segments,)`` (henries, from
        the Neumann solver); the result has shape ``(n_cells,)``.
        """
        coupling = np.asarray(segment_coupling, dtype=np.float64)
        if coupling.shape != (self.grid.n_segments,):
            raise LayoutError(
                f"coupling vector has shape {coupling.shape}, expected "
                f"({self.grid.n_segments},)"
            )
        return np.asarray(coupling @ self.matrix).ravel()


def _first_outside_die(grid: PowerGrid, xs: np.ndarray, ys: np.ndarray) -> int:
    """Index of the first point outside the die (NaN and ±inf count), or -1."""
    inside = (
        (xs >= 0.0) & (xs <= grid.die_width) & (ys >= 0.0) & (ys <= grid.die_height)
    )
    return -1 if inside.all() else int(np.flatnonzero(~inside)[0])


def _runs(
    start: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Output positions and VDD tile ids of one run of pairs per cell.

    Cell ``c`` contributes ``counts[c]`` (VDD, VSS) pairs; pair ``k``
    has VDD tile ``first[c] + k`` at position ``start[c] + 2 * k``.
    """
    local = np.arange(counts.sum()) - (counts.cumsum() - counts).repeat(counts)
    return start.repeat(counts) + 2 * local, first.repeat(counts) + local


def _cell_paths(
    grid: PowerGrid, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed tile paths of the cells at ``(xs, ys)``, column by column.

    Returns CSC ``(indptr, indices, data)`` of the ``(n_segments,
    n_cells)`` map.  Column ``c`` lists cell ``c``'s path in path order:
    rail tiles between the stripe tap and the cell (VDD, VSS pairs),
    stripe tiles between the ring and the row (VDD, VSS pairs), then
    the VDD and VSS ring runs.
    """
    n_tx, n_ty = grid.n_tiles_x, grid.n_tiles_y
    # Points lie inside the die, so only the top/right edge needs clamping.
    row = np.minimum(
        (ys / (grid.die_height / grid.n_rows)).astype(np.int64), grid.n_rows - 1
    )
    kx = np.minimum((xs / grid.tile_len).astype(np.int64), n_tx - 1)
    # The nearest stripe pair; argmin keeps the lowest index on a tie.
    stripe = np.abs(grid.stripe_xs - xs[:, None]).argmin(axis=1)
    stripe_tile = np.minimum(
        (grid.stripe_xs / grid.tile_len).astype(np.int64), n_tx - 1
    )
    ks = stripe_tile[stripe]
    ky = np.minimum((ys / grid.tile_len).astype(np.int64), n_ty - 1)
    from_bottom = ys < 0.5 * grid.die_height

    # Horizontal rail tiles between the stripe tap and the cell.  VDD
    # current flows stripe -> cell; VSS return flows cell -> stripe.
    n_rail = np.abs(kx - ks) + 1
    rail_first = grid.vdd_rail_tile(row, np.minimum(kx, ks))
    rail_sign = np.where(kx >= ks, 1.0, -1.0)  # +x direction when kx >= ks
    # Vertical stripe tiles between the nearest ring edge and the row:
    # fed upward from the bottom ring or downward from the top ring.
    n_stripe = np.where(from_bottom, ky + 1, n_ty - ky)
    stripe_first = grid.vdd_stripe_tile(stripe, np.where(from_bottom, 0, ky))
    stripe_sign = np.where(from_bottom, 1.0, -1.0)
    # Ring tiles: VDD pads on the left edge feed rightward to the
    # stripe; VSS return continues rightward from the stripe to the
    # right-edge pads.  Both runs carry current in +x, so the global
    # path adds coherently across the whole die.  Every cell has
    # n_tx + 1 ring entries: VDD tiles 0..ks, then VSS tiles ks..n_tx-1.
    k = np.arange(n_tx + 1)
    vdd_ring = np.where(from_bottom, grid.ring_vdd_bottom_base, grid.ring_vdd_top_base)
    vss_ring = np.where(from_bottom, grid.ring_vss_bottom_base, grid.ring_vss_top_base)
    ring_tiles = np.where(
        k <= ks[:, None], vdd_ring[:, None] + k, vss_ring[:, None] + k - 1
    )

    indptr = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(2 * n_rail + 2 * n_stripe + n_tx + 1, out=indptr[1:])
    start = indptr[:-1]
    indices = np.empty(indptr[-1], dtype=np.int32)
    # Every ring entry carries the ring fraction; the rail and stripe
    # pairs overwrite theirs with the signed unit currents.
    data = np.full(indptr[-1], grid.ring_current_fraction, dtype=np.float64)

    for first, counts, sign, vss_offset, block in (
        (rail_first, n_rail, rail_sign,
         grid.vss_rail_base - grid.vdd_rail_base, start),
        (stripe_first, n_stripe, stripe_sign,
         grid.vss_stripe_base - grid.vdd_stripe_base, start + 2 * n_rail),
    ):
        pos, tile = _runs(block, first, counts)
        signs = sign.repeat(counts)
        indices[pos] = tile
        data[pos] = signs
        indices[pos + 1] = tile + vss_offset
        data[pos + 1] = -signs
    ring_start = start + 2 * n_rail + 2 * n_stripe
    indices[ring_start[:, None] + k] = ring_tiles
    return indptr, indices, data


def build_current_map(
    grid: PowerGrid,
    xs: np.ndarray,
    ys: np.ndarray,
) -> CurrentMap:
    """Build the sparse current map for cells at ``(xs, ys)``.

    The column order of the matrix matches the order of *xs*/*ys*
    (i.e. the compiled netlist's instance order).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise LayoutError(
            f"xs {xs.shape} and ys {ys.shape} must be equal-length 1-D arrays"
        )
    c = _first_outside_die(grid, xs, ys)
    if c >= 0:
        raise LayoutError(
            f"cell {c} at ({xs[c]:.2e}, {ys[c]:.2e}) lies outside the die"
        )
    indptr, indices, data = _cell_paths(grid, xs, ys)
    shape = (grid.n_segments, xs.size)
    matrix = sparse.csc_matrix((data, indices, indptr), shape=shape).tocsr()
    return CurrentMap(matrix=matrix, grid=grid)


def position_coupling(
    grid: PowerGrid,
    segment_coupling: np.ndarray,
    x: float,
    y: float,
) -> float:
    """EM coupling weight for a current source at an arbitrary (x, y).

    Used for analog taps, which radiate from their Trojan's region
    centroid rather than from a placed library cell.  The products are
    summed one by one in path order, not by a pairwise reduction.
    """
    xs = np.array([x], dtype=float)
    ys = np.array([y], dtype=float)
    if _first_outside_die(grid, xs, ys) >= 0:
        raise LayoutError(f"point ({x:.2e}, {y:.2e}) lies outside the die")
    _indptr, indices, data = _cell_paths(grid, xs, ys)
    coupling = np.asarray(segment_coupling, dtype=np.float64)
    # Iterate np.float64 scalars, not Python floats: from Python 3.12 the
    # builtin sum() compensates plain-float sums (Neumaier), which would
    # change the last bits.  np.float64 is a float subclass, so sum()
    # adds it left to right without compensation on every version.
    return float(sum(coupling[indices] * data))
