"""Physical-design substrate: die geometry, placement, power delivery.

Turns the flat netlist into physics: a 180 nm technology description
(:mod:`~repro.layout.technology`), a Figure 3-style floorplan with the
AES on one side and the four Trojans plus the A2 cell in their own
regions (:mod:`~repro.layout.floorplan`), row-based placement
(:mod:`~repro.layout.placement`), and a rail/stripe power grid whose
metal segments carry every cell's switching current
(:mod:`~repro.layout.power_grid`, :mod:`~repro.layout.current_map`).
Those segments are the Biot–Savart sources of the EM model.
"""

from repro.layout.geometry import (
    Rect,
    circular_loop,
    polyline_length,
    rectangular_spiral,
)
from repro.layout.technology import MetalLayer, Technology, make_tech180
from repro.layout.floorplan import Floorplan, Region, plan_floorplan
from repro.layout.placement import Placement, place_netlist
from repro.layout.power_grid import PowerGrid, build_power_grid
from repro.layout.current_map import CurrentMap, build_current_map
from repro.layout.drc import DrcReport, run_drc

__all__ = [
    "Rect",
    "circular_loop",
    "polyline_length",
    "rectangular_spiral",
    "MetalLayer",
    "Technology",
    "make_tech180",
    "Floorplan",
    "Region",
    "plan_floorplan",
    "Placement",
    "place_netlist",
    "PowerGrid",
    "build_power_grid",
    "CurrentMap",
    "build_current_map",
    "DrcReport",
    "run_drc",
]
