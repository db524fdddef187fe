"""Transient-current synthesis.

Replaces the paper's Hspice step: each cell toggle becomes a charge
packet (:mod:`~repro.power.charges`) drawn through the power grid as a
short triangular pulse placed within the clock period according to the
gate's logic depth (:mod:`~repro.power.pulse`).  Flip-flops additionally
draw a clock charge every enabled cycle, which is what puts the clock
line and its harmonics into the EM spectra.
"""

from repro.power.charges import (
    clock_charges,
    switching_charges,
)
from repro.power.report import PowerReport, encryption_power_workload, measure_power
from repro.power.pulse import (
    current_kernel,
    emf_kernel,
    step_kernel,
    synthesize_events,
)

__all__ = [
    "clock_charges",
    "switching_charges",
    "current_kernel",
    "emf_kernel",
    "step_kernel",
    "synthesize_events",
    "PowerReport",
    "encryption_power_workload",
    "measure_power",
]
