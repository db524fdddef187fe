"""Power-delivery network geometry.

Per row, a VDD rail along its top edge and a VSS rail along its bottom
edge (M1); vertical VDD/VSS stripe pairs (M5) tap the rails at a fixed
pitch and connect to the pad ring at the top and bottom die edges.  All
wires are discretised into fixed-length tiles — the finite straight
segments the Biot–Savart solver consumes.

The tight VDD/VSS spacing matters physically: each cell's draw and
return currents form a small loop, so the far field mostly cancels
while the near field (where the on-chip coil sits, a few µm above)
does not.  That asymmetry is the root cause of the paper's on-chip
versus external-probe SNR gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.layout.floorplan import Floorplan
from repro.units import UM


@dataclass
class PowerGrid:
    """Discretised power-grid segments plus the indexing the current
    map needs to translate a cell position into a current path."""

    seg_start: np.ndarray  # (N, 3)
    seg_end: np.ndarray  # (N, 3)
    seg_width: np.ndarray  # (N,)
    die_width: float
    die_height: float
    tile_len: float
    n_rows: int
    n_tiles_x: int
    n_tiles_y: int
    stripe_xs: np.ndarray  # (S,) stripe-pair centre x positions
    # Segment-id block offsets, in order: VDD rails, VSS rails, VDD
    # stripes, VSS stripes, then the four ring runs (VDD top/bottom,
    # VSS top/bottom).
    vdd_rail_base: int
    vss_rail_base: int
    vdd_stripe_base: int
    vss_stripe_base: int
    ring_vdd_top_base: int = 0
    ring_vdd_bottom_base: int = 0
    ring_vss_top_base: int = 0
    ring_vss_bottom_base: int = 0
    #: Fraction of a cell's switching current that reaches the ring.
    #: On-chip and package decoupling capacitance supplies most of the
    #: nanosecond-scale charge locally; only this residue flows through
    #: the pads.  Without it the die-wide ring loop would dominate both
    #: receivers and erase the on-chip sensor's locality advantage.
    ring_current_fraction: float = 0.0

    @property
    def n_segments(self) -> int:
        return self.seg_start.shape[0]

    def vdd_rail_tile(self, row: int, kx: int) -> int:
        """Segment id of VDD rail tile *kx* in *row*."""
        return self.vdd_rail_base + row * self.n_tiles_x + kx

    def vdd_stripe_tile(self, stripe: int, ky: int) -> int:
        return self.vdd_stripe_base + stripe * self.n_tiles_y + ky


def build_power_grid(
    floorplan: Floorplan,
    tile_len: float = 25 * UM,
    stripe_pitch: float = 150 * UM,
    rail_width: float = 0.8 * UM,
    stripe_width: float = 3.0 * UM,
    rail_inset: float = 0.5 * UM,
    stripe_gap: float = 3.0 * UM,
    ring_current_fraction: float = 0.0,
) -> PowerGrid:
    """Construct the tiled rail/stripe network for *floorplan*.

    ``rail_inset`` offsets the VDD (VSS) rail below (above) the row's
    top (bottom) edge so adjacent rows' rails do not coincide;
    ``stripe_gap`` is the VDD-to-VSS spacing within a stripe pair.
    """
    if tile_len <= 0:
        raise LayoutError(f"tile_len must be positive, got {tile_len}")
    tech = floorplan.tech
    die = floorplan.die
    w, h = die.width, die.height
    n_rows = floorplan.n_rows
    n_tiles_x = max(1, math.ceil(w / tile_len))
    n_tiles_y = max(1, math.ceil(h / tile_len))
    z_rail = tech.layer(tech.rail_layer).z
    z_stripe = tech.layer(tech.stripe_layer).z

    n_stripes = max(2, int(round(w / stripe_pitch)) + 1)
    stripe_xs = np.linspace(0.5 * stripe_pitch, w - 0.5 * stripe_pitch, n_stripes)
    if n_stripes == 2:
        stripe_xs = np.array([0.25 * w, 0.75 * w])

    starts: list[tuple[float, float, float]] = []
    ends: list[tuple[float, float, float]] = []
    widths: list[float] = []

    def add_h_rails(y: float) -> None:
        for k in range(n_tiles_x):
            x0 = min(k * tile_len, w)
            x1 = min((k + 1) * tile_len, w)
            starts.append((x0, y, z_rail))
            ends.append((x1, y, z_rail))
            widths.append(rail_width)

    rh = tech.row_height
    vdd_rail_base = 0
    for r in range(n_rows):
        add_h_rails((r + 1) * rh - rail_inset)
    vss_rail_base = len(starts)
    for r in range(n_rows):
        add_h_rails(r * rh + rail_inset)

    def add_v_stripes(x: float) -> None:
        for k in range(n_tiles_y):
            y0 = min(k * tile_len, h)
            y1 = min((k + 1) * tile_len, h)
            starts.append((x, y0, z_stripe))
            ends.append((x, y1, z_stripe))
            widths.append(stripe_width)

    vdd_stripe_base = len(starts)
    for xs in stripe_xs:
        add_v_stripes(xs - 0.5 * stripe_gap)
    vss_stripe_base = len(starts)
    for xs in stripe_xs:
        add_v_stripes(xs + 0.5 * stripe_gap)

    # Power ring along the top and bottom die edges.  VDD pads sit on
    # the left edge, VSS pads on the right (as on the paper's Fig. 3
    # die), so draw and return ring currents flow the *same* direction
    # across the die — the global supply path that carries the total
    # chip current without VDD/VSS near-field cancellation.
    ring_width = 20 * UM
    ring_inset_y = 6 * UM

    def add_ring_run(y: float) -> None:
        for k in range(n_tiles_x):
            x0 = min(k * tile_len, w)
            x1 = min((k + 1) * tile_len, w)
            starts.append((x0, y, z_stripe))
            ends.append((x1, y, z_stripe))
            widths.append(ring_width)

    ring_vdd_top_base = len(starts)
    add_ring_run(h)
    ring_vdd_bottom_base = len(starts)
    add_ring_run(0.0)
    ring_vss_top_base = len(starts)
    add_ring_run(h - ring_inset_y)
    ring_vss_bottom_base = len(starts)
    add_ring_run(ring_inset_y)

    return PowerGrid(
        seg_start=np.array(starts),
        seg_end=np.array(ends),
        seg_width=np.array(widths),
        die_width=w,
        die_height=h,
        tile_len=tile_len,
        n_rows=n_rows,
        n_tiles_x=n_tiles_x,
        n_tiles_y=n_tiles_y,
        stripe_xs=stripe_xs,
        vdd_rail_base=vdd_rail_base,
        vss_rail_base=vss_rail_base,
        vdd_stripe_base=vdd_stripe_base,
        vss_stripe_base=vss_stripe_base,
        ring_vdd_top_base=ring_vdd_top_base,
        ring_vdd_bottom_base=ring_vdd_bottom_base,
        ring_vss_top_base=ring_vss_top_base,
        ring_vss_bottom_base=ring_vss_bottom_base,
        ring_current_fraction=ring_current_fraction,
    )
