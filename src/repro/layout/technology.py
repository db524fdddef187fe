"""180 nm technology description.

Six metal layers, 9-track standard-cell rows, 1.8 V supply.  The paper
implements the AES and Trojans on M1–M5 and reserves M6, the topmost
layer, exclusively for the on-chip EM sensor coil ("the only
modifications made to the original design is to avoid any placement and
routing on the top metal layer").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TechnologyError
from repro.logic.library import ROW_HEIGHT, SITE_WIDTH, VDD
from repro.units import OHM, UM


@dataclass(frozen=True)
class MetalLayer:
    """One routing layer of the stack."""

    name: str
    #: Height of the layer midplane above the transistor plane [m].
    z: float
    #: Minimum legal trace width [m].
    min_width: float
    #: Sheet resistance [ohm/square].
    sheet_res: float

    def wire_resistance(self, length: float, width: float) -> float:
        """Resistance of a trace of given *length* and *width*.

        Raises
        ------
        TechnologyError
            If *width* violates the layer's minimum width rule.
        """
        if width < self.min_width:
            raise TechnologyError(
                f"{self.name}: width {width:.2e} below minimum "
                f"{self.min_width:.2e}"
            )
        if length < 0:
            raise TechnologyError(f"negative wire length {length}")
        return self.sheet_res * length / width


@dataclass(frozen=True)
class Technology:
    """Process data consumed by floorplanning, routing and EM models."""

    name: str
    layers: dict[str, MetalLayer]
    row_height: float = ROW_HEIGHT
    site_width: float = SITE_WIDTH
    vdd: float = VDD
    #: Layer carrying standard-cell power rails.
    rail_layer: str = "M1"
    #: Layer carrying vertical power stripes and the power ring.
    stripe_layer: str = "M5"
    #: Topmost layer, reserved for the EM sensor coil.
    sensor_layer: str = "M6"
    #: Per-unit-length wire capacitance estimate [F/m] for loads.
    wire_cap_per_m: float = 0.16e-9  # 0.16 fF/µm

    def layer(self, name: str) -> MetalLayer:
        """Look up a metal layer by name.

        Raises
        ------
        TechnologyError
            If the layer does not exist.
        """
        try:
            return self.layers[name]
        except KeyError:
            known = ", ".join(sorted(self.layers))
            raise TechnologyError(
                f"unknown layer {name!r}; technology has: {known}"
            ) from None


def make_tech180() -> Technology:
    """The default generic 0.18 µm 1P6M technology."""
    layers = {
        "M1": MetalLayer("M1", z=0.8 * UM, min_width=0.28 * UM, sheet_res=0.08 * OHM),
        "M2": MetalLayer("M2", z=1.6 * UM, min_width=0.28 * UM, sheet_res=0.08 * OHM),
        "M3": MetalLayer("M3", z=2.4 * UM, min_width=0.28 * UM, sheet_res=0.08 * OHM),
        "M4": MetalLayer("M4", z=3.2 * UM, min_width=0.28 * UM, sheet_res=0.08 * OHM),
        "M5": MetalLayer("M5", z=4.0 * UM, min_width=0.44 * UM, sheet_res=0.04 * OHM),
        "M6": MetalLayer("M6", z=5.0 * UM, min_width=0.44 * UM, sheet_res=0.008 * OHM),
    }
    return Technology(name="generic180", layers=layers)


#: Module-level default instance shared across the package.
TECH180 = make_tech180()
