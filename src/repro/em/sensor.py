"""The on-chip EM sensor — the paper's key component (Fig. 2b).

A one-way spiral coil on the topmost metal layer (M6), starting at the
die centre and growing to cover the whole circuit.  Its two ends route
to the Sensor In / Sensor Out pads; the differential voltage between
them is the sensor output.  Because the coil sits a few microns above
the power grid, it intercepts the near field of every cell's current
loop before VDD/VSS cancellation sets in — that geometry, not any
amplifier, is where the SNR advantage over an external probe comes
from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EmModelError, TechnologyError
from repro.layout.geometry import Rect, enclosed_area, polyline_length, rectangular_spiral
from repro.layout.technology import Technology
from repro.em.mutual import mutual_inductance_to_loops
from repro.units import UM


@dataclass
class OnChipSensor:
    """Spiral sensor geometry plus its electrical properties."""

    polyline: np.ndarray
    turns: int
    pitch: float
    trace_width: float
    layer_name: str
    tech: Technology

    @classmethod
    def design(
        cls,
        die: Rect,
        tech: Technology,
        turns: int = 12,
        trace_width: float = 2.0 * UM,
        edge_margin: float = 10.0 * UM,
    ) -> "OnChipSensor":
        """Design a spiral covering *die* on the technology's top layer.

        The coil pitch is chosen so the outermost turn reaches the die
        edge minus *edge_margin*; the trace width must respect the top
        layer's minimum width rule ("the width of the coils is set not
        to violate the design rules", paper Section III-C).

        Raises
        ------
        TechnologyError
            If *trace_width* violates the sensor layer's minimum width.
        EmModelError
            If the requested turn count cannot fit the die.
        """
        layer = tech.layer(tech.sensor_layer)
        if trace_width < layer.min_width:
            raise TechnologyError(
                f"sensor trace width {trace_width:.2e} violates "
                f"{layer.name} minimum width {layer.min_width:.2e}"
            )
        half_extent = 0.5 * min(die.width, die.height) - edge_margin
        if half_extent <= 0:
            raise EmModelError("die too small for a sensor coil")
        pitch = half_extent / turns
        if pitch < 2.0 * trace_width:
            raise EmModelError(
                f"{turns} turns need a pitch of {pitch:.2e} m, below twice "
                f"the trace width; reduce turns or width"
            )
        cx, cy = die.center
        polyline = rectangular_spiral(cx, cy, layer.z, pitch, turns)
        return cls(
            polyline=polyline,
            turns=turns,
            pitch=pitch,
            trace_width=trace_width,
            layer_name=layer.name,
            tech=tech,
        )

    # ------------------------------------------------------------------
    # Electromagnetics
    # ------------------------------------------------------------------
    def coupling(
        self, seg_start: np.ndarray, seg_end: np.ndarray, n_quad: int = 4
    ) -> np.ndarray:
        """Mutual inductance of each source segment to the coil [H]."""
        return mutual_inductance_to_loops(
            seg_start, seg_end, [self.polyline], n_quad=n_quad
        )[0]

    def effective_area(self) -> float:
        """Turns-weighted flux-capture area [m² · turns].

        The shoelace area of the open spiral counts each annulus with
        multiplicity equal to the number of turns enclosing it, which is
        exactly the uniform-field pickup area.  Environment noise
        couples proportionally to this.
        """
        return abs(enclosed_area(self.polyline))

    def length(self) -> float:
        """Total coil trace length [m]."""
        return polyline_length(self.polyline)

    def resistance(self) -> float:
        """DC resistance of the coil trace [ohm]."""
        layer = self.tech.layer(self.layer_name)
        return layer.wire_resistance(self.length(), self.trace_width)

    def describe(self) -> str:
        """One-line geometric summary."""
        um = 1e6
        return (
            f"on-chip spiral: {self.turns} turns, pitch {self.pitch * um:.1f} um, "
            f"width {self.trace_width * um:.1f} um on {self.layer_name}, "
            f"length {self.length() * 1e3:.2f} mm, R = {self.resistance():.1f} ohm, "
            f"A_eff = {self.effective_area() * 1e6:.3f} mm^2-turns"
        )


@dataclass
class SensorArray:
    """An N×M grid of smaller spiral coils tiling the die.

    The programmable sensor-array follow-up replaces the one full-die
    spiral with selectable sub-coils; each sub-coil sees mostly the
    current loops under its own tile, which is what turns detection
    into localization.  Every coil is a full :class:`OnChipSensor`
    (same layer, same DRC checks), just designed inside its tile
    instead of the whole die.

    Coils are stored row-major: ``coils[r * cols + c]`` covers tile
    ``(r, c)``, with row 0 at the *bottom* of the die (lowest y) and
    column 0 at the left, matching floorplan coordinates.
    """

    rows: int
    cols: int
    coils: list[OnChipSensor]
    tiles: list[Rect]
    die: Rect

    @classmethod
    def design_grid(
        cls,
        die: Rect,
        tech: Technology,
        rows: int,
        cols: int,
        turns: int = 3,
        trace_width: float = 2.0 * UM,
        edge_margin: float = 4.0 * UM,
    ) -> "SensorArray":
        """Tile *die* with ``rows x cols`` sub-coils.

        Each tile gets its own :meth:`OnChipSensor.design` call, so the
        per-tile pitch/width validation (minimum width, pitch >= 2w)
        applies to the sub-coils exactly as to the full-die spiral.
        """
        if rows < 1 or cols < 1:
            raise EmModelError(
                f"sensor array needs rows >= 1 and cols >= 1, got {rows}x{cols}"
            )
        tile_w = die.width / cols
        tile_h = die.height / rows
        coils: list[OnChipSensor] = []
        tiles: list[Rect] = []
        for r in range(rows):
            for c in range(cols):
                tile = Rect(
                    die.x0 + c * tile_w,
                    die.y0 + r * tile_h,
                    die.x0 + (c + 1) * tile_w,
                    die.y0 + (r + 1) * tile_h,
                )
                coils.append(
                    OnChipSensor.design(
                        tile,
                        tech,
                        turns=turns,
                        trace_width=trace_width,
                        edge_margin=edge_margin,
                    )
                )
                tiles.append(tile)
        return cls(rows=rows, cols=cols, coils=coils, tiles=tiles, die=die)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def channel_names(self, prefix: str = "array") -> list[str]:
        """Row-major channel names, ``{prefix}.r{r}c{c}``."""
        return [
            f"{prefix}.r{r}c{c}"
            for r in range(self.rows)
            for c in range(self.cols)
        ]

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell ``(row, col)`` containing die point ``(x, y)``.

        Points outside the die clamp to the nearest edge cell.
        """
        c = int((x - self.die.x0) / self.die.width * self.cols)
        r = int((y - self.die.y0) / self.die.height * self.rows)
        return (
            min(max(r, 0), self.rows - 1),
            min(max(c, 0), self.cols - 1),
        )

    # ------------------------------------------------------------------
    # Electromagnetics
    # ------------------------------------------------------------------
    def coupling(
        self, seg_start: np.ndarray, seg_end: np.ndarray, n_quad: int = 4
    ) -> np.ndarray:
        """Coupling tensor of every source segment to every coil.

        One batched :func:`mutual_inductance_to_loops` pass; shape
        ``(rows*cols, n_segments)`` [H], coils row-major.
        """
        return mutual_inductance_to_loops(
            seg_start,
            seg_end,
            [coil.polyline for coil in self.coils],
            n_quad=n_quad,
        )
