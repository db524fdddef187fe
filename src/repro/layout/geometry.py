"""Planar/3-D geometry primitives for die layout and coil design.

Coordinates are metres.  The die sits in the z = 0 plane with metal
layers at their stack heights; polylines are ``(N, 3)`` float arrays of
consecutive vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[x0, x1] x [y0, y1]``."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise LayoutError(
                f"degenerate rectangle ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def contains(self, x: float, y: float, tol: float = 0.0) -> bool:
        """True when point (x, y) lies inside (inclusive, with *tol* slack)."""
        return (
            self.x0 - tol <= x <= self.x1 + tol
            and self.y0 - tol <= y <= self.y1 + tol
        )


def polyline_length(points: np.ndarray) -> float:
    """Total length of a polyline given as an ``(N, 3)`` vertex array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise LayoutError(f"polyline must be (N>=2, 3), got shape {pts.shape}")
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def rectangular_spiral(
    center_x: float,
    center_y: float,
    z: float,
    pitch: float,
    turns: int,
) -> np.ndarray:
    """One-way rectangular spiral from the centre outward (paper Fig. 2b).

    "The proposed on-chip EM sensor is designed as a coil starting from
    the center, extending to the corner and covering the entire
    circuit."  Legs alternate east/north/west/south and grow by one
    *pitch* every half turn, so after *turns* turns the outermost leg
    has a half-extent of ``turns * pitch``.

    Returns an ``(N, 3)`` vertex array.
    """
    if pitch <= 0:
        raise LayoutError(f"spiral pitch must be positive, got {pitch}")
    if turns < 1:
        raise LayoutError(f"spiral needs at least 1 turn, got {turns}")
    pts = [(center_x, center_y, z)]
    x, y = center_x, center_y
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    leg = 0
    # Leg lengths follow 1, 1, 2, 2, 3, 3, ... times the pitch.
    for k in range(1, 2 * turns + 1):
        length = k * pitch
        for _ in range(2):
            dx, dy = directions[leg % 4]
            x += dx * length
            y += dy * length
            pts.append((x, y, z))
            leg += 1
    return np.array(pts, dtype=float)


def circular_loop(
    center_x: float,
    center_y: float,
    z: float,
    radius: float,
    n_sides: int = 24,
) -> np.ndarray:
    """A closed circular loop approximated by an *n_sides*-gon.

    Returns an ``(n_sides + 1, 3)`` vertex array whose last point equals
    the first.
    """
    if radius <= 0:
        raise LayoutError(f"loop radius must be positive, got {radius}")
    if n_sides < 3:
        raise LayoutError(f"loop needs at least 3 sides, got {n_sides}")
    angles = np.linspace(0.0, 2.0 * math.pi, n_sides + 1)
    pts = np.stack(
        [
            center_x + radius * np.cos(angles),
            center_y + radius * np.sin(angles),
            np.full_like(angles, z),
        ],
        axis=1,
    )
    pts[-1] = pts[0]
    return pts


def enclosed_area(points: np.ndarray) -> float:
    """Signed shoelace area of a polyline projected onto the XY plane.

    The polyline is treated as closed (last vertex joined to the first).
    Used for coil effective-area estimates.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
