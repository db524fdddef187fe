"""Floorplanning — paper Figure 3.

The die is square; the AES occupies a tall region on the left and the
four digital Trojans plus the A2 cell stack in a column on the right,
each in its own placement region, mirroring the fabricated chip's
layout.  Region widths/heights are proportional to each group's cell
area divided by the target row utilisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LayoutError
from repro.layout.geometry import Rect
from repro.layout.technology import Technology
from repro.logic.netlist import Netlist


@dataclass(frozen=True)
class Region:
    """A named placement region of the floorplan."""

    group: str
    rect: Rect


@dataclass
class Floorplan:
    """Die outline plus one placement region per instance group."""

    die: Rect
    regions: dict[str, Region]
    utilization: float
    tech: Technology

    @property
    def n_rows(self) -> int:
        """Number of standard-cell rows spanning the die."""
        return int(self.die.height / self.tech.row_height)

    def region(self, group: str) -> Region:
        """Region of *group*.

        Raises
        ------
        LayoutError
            If the group has no region.
        """
        try:
            return self.regions[group]
        except KeyError:
            known = ", ".join(sorted(self.regions))
            raise LayoutError(
                f"no region for group {group!r}; floorplan has: {known}"
            ) from None

    def summary(self) -> str:
        """Human-readable floorplan report (used by the Fig. 3 bench)."""
        um = 1e6
        lines = [
            f"die: {self.die.width * um:.0f} x {self.die.height * um:.0f} um, "
            f"{self.n_rows} rows, utilization {self.utilization:.2f}"
        ]
        for name in sorted(self.regions):
            r = self.regions[name].rect
            lines.append(
                f"  {name:<10} ({r.x0 * um:7.1f}, {r.y0 * um:7.1f}) -> "
                f"({r.x1 * um:7.1f}, {r.y1 * um:7.1f}) um"
            )
        return "\n".join(lines)


#: Default left-to-right split: AES region vs Trojan column (Fig. 3).
DEFAULT_MAIN_GROUP = "aes"


def plan_floorplan(
    netlist: Netlist,
    tech: Technology,
    utilization: float = 0.70,
    main_group: str = DEFAULT_MAIN_GROUP,
    column_order: list[str] | None = None,
) -> Floorplan:
    """Compute a Figure 3-style floorplan for *netlist*.

    Parameters
    ----------
    netlist:
        The die netlist; every instance group present gets a region.
    tech:
        Technology (row height, site width).
    utilization:
        Target placement density within each region, in (0, 1].
    main_group:
        The group occupying the left block (the AES).
    column_order:
        Top-to-bottom order of the right-column groups; defaults to the
        remaining groups sorted by name (trojan1..4 then a2).
    """
    if not 0.0 < utilization <= 1.0:
        raise LayoutError(f"utilization must be in (0, 1], got {utilization}")
    areas: dict[str, float] = {}
    for inst in netlist.instances.values():
        areas[inst.group] = areas.get(inst.group, 0.0) + inst.cell.area
    if main_group not in areas:
        raise LayoutError(f"netlist has no instances in group {main_group!r}")

    total_area = sum(areas.values()) / utilization
    die_side = math.sqrt(total_area)
    # Snap to whole rows and sites.
    n_rows = max(4, math.ceil(die_side / tech.row_height))
    die_h = n_rows * tech.row_height
    die_w = math.ceil(total_area / die_h / tech.site_width) * tech.site_width
    die = Rect(0.0, 0.0, die_w, die_h)

    side_groups = [g for g in sorted(areas) if g != main_group]
    if column_order is not None:
        missing = set(side_groups) - set(column_order)
        if missing:
            raise LayoutError(f"column_order misses groups: {sorted(missing)}")
        side_groups = [g for g in column_order if g in areas]

    regions: dict[str, Region] = {}
    if not side_groups:
        regions[main_group] = Region(main_group, die)
        return Floorplan(die, regions, utilization, tech)

    side_area = sum(areas[g] for g in side_groups) / utilization
    column_w = max(
        10 * tech.site_width,
        math.ceil(side_area / die_h / tech.site_width) * tech.site_width,
    )
    main_w = die_w - column_w
    if main_w <= 0:
        raise LayoutError(
            "Trojan column consumes the whole die; lower utilization or "
            "shrink the Trojans"
        )
    regions[main_group] = Region(main_group, Rect(0.0, 0.0, main_w, die_h))

    # Stack the side groups top-to-bottom with heights snapped to rows
    # and proportional to their area.
    y_top = die_h
    for i, group in enumerate(side_groups):
        frac = areas[group] / sum(areas[g] for g in side_groups)
        rows = max(1, round(frac * n_rows))
        height = rows * tech.row_height
        y0 = max(0.0, y_top - height)
        if i == len(side_groups) - 1:
            y0 = 0.0  # last region absorbs rounding slack
        regions[group] = Region(group, Rect(main_w, y0, die_w, y_top))
        y_top = y0
    return Floorplan(die, regions, utilization, tech)
