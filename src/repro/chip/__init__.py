"""Chip integration: the fabricated test chip as one object.

:class:`~repro.chip.chip.Chip` assembles everything — netlist (AES +
Trojans), placement, power grid, on-chip sensor, external probe and the
per-cell EM coupling weights — and
:class:`~repro.chip.acquire.AcquisitionEngine` turns logic activity
into receiver voltage traces under a measurement
:class:`~repro.chip.scenario.Scenario` (ideal simulation vs fabricated
silicon with process variation, packaging and an oscilloscope).
"""

from repro.chip.config import ChipConfig
from repro.chip.scenario import (
    Scenario,
    array_scenario,
    silicon_scenario,
    simulation_scenario,
)
from repro.chip.oscilloscope import Oscilloscope
from repro.chip.chip import Chip, Receiver
from repro.chip.acquire import (
    AcquisitionEngine,
    EncryptionWorkload,
    GroupMember,
    IdleWorkload,
)

__all__ = [
    "ChipConfig",
    "Scenario",
    "array_scenario",
    "silicon_scenario",
    "simulation_scenario",
    "Oscilloscope",
    "Chip",
    "Receiver",
    "AcquisitionEngine",
    "EncryptionWorkload",
    "GroupMember",
    "IdleWorkload",
]
