"""External EM probe model — paper Fig. 2a.

The X-rayed LANGER RF probe is "several metal coils with the same
diameter at the top end"; we model it as a stack of identical circular
loops at a standoff above the die surface (the paper sets the probe
100 µm above the circuit, "with reference to the real thickness of
packaging of the chip").

From there every straight side of a turn is far from every grid
segment, so :func:`~repro.em.mutual.mutual_inductance_to_loops`
integrates each side in closed form and keeps only a
:data:`PROBE_QUADRATURE`-point Gauss rule along the sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EmModelError
from repro.layout.geometry import Rect, circular_loop, enclosed_area
from repro.em.mutual import mutual_inductance_to_loops
from repro.units import MM, UM

#: Gauss–Legendre order along each source segment of the probe's
#: coupling.  Over the seed-1 chip's 7–25 µm grid segments, two points
#: put each turn within 8.3e-10 of its peak coupling from a 100 µm
#: standoff; one point would be 2.3e-5.
PROBE_QUADRATURE = 2


@dataclass
class ExternalProbe:
    """Stacked-loop external probe."""

    loops: list[np.ndarray]
    radius: float
    standoff: float

    @classmethod
    def langer_rf(
        cls,
        die: Rect,
        die_top_z: float,
        standoff: float = 100 * UM,
        radius: float = 1.2 * MM,
        turns: int = 8,
        turn_spacing: float = 60 * UM,
        n_sides: int = 24,
    ) -> "ExternalProbe":
        """A LANGER-RF-style probe centred over the die.

        Parameters
        ----------
        die:
            Die outline (the probe centres on it).
        die_top_z:
            Height of the die surface above the transistor plane [m].
        standoff:
            Probe-tip height above the die surface [m]; the paper's
            simulations use 100 µm.
        radius:
            Loop radius [m] (mm-class for a real RF probe head).
        turns:
            Number of stacked identical loops.
        turn_spacing:
            Vertical spacing between loops [m].
        """
        if turns < 1:
            raise EmModelError(f"probe needs at least 1 turn, got {turns}")
        if standoff < 0:
            raise EmModelError(f"standoff must be >= 0, got {standoff}")
        cx, cy = die.center
        z0 = die_top_z + standoff
        loops = [
            circular_loop(cx, cy, z0 + k * turn_spacing, radius, n_sides)
            for k in range(turns)
        ]
        return cls(loops=loops, radius=radius, standoff=standoff)

    @property
    def turns(self) -> int:
        return len(self.loops)

    def coupling(self, seg_start: np.ndarray, seg_end: np.ndarray) -> np.ndarray:
        """Mutual inductance of each source segment to the probe [H]:
        one pass over all turns, summed."""
        return mutual_inductance_to_loops(
            seg_start, seg_end, self.loops, n_quad=PROBE_QUADRATURE
        ).sum(axis=0)

    def effective_area(self) -> float:
        """Total flux-capture area of all turns [m² · turns]."""
        return float(sum(abs(enclosed_area(loop)) for loop in self.loops))

    def describe(self) -> str:
        """One-line geometric summary."""
        return (
            f"external probe: {self.turns} turns, radius {self.radius * 1e3:.2f} mm, "
            f"standoff {self.standoff * 1e6:.0f} um, "
            f"A_eff = {self.effective_area() * 1e6:.2f} mm^2-turns"
        )
