"""repro — reproduction of "Runtime Trust Evaluation and Hardware Trojan
Detection Using On-Chip EM Sensors" (He et al., DAC 2020).

The package builds the paper's entire stack in Python: a gate-level AES
test chip with five hardware Trojans, a procedural 180 nm layout with a
spiral on-chip EM sensor on the top metal layer, a Neumann/Biot–Savart
EM solver, silicon/measurement models, and the runtime trust-evaluation
framework (Euclidean-distance and spectral detectors) that the paper
contributes.

Quickstart::

    from repro import Chip, simulation_scenario
    from repro.chip.calibration import calibrate_scenario
    from repro.experiments import collect_ed_traces
    from repro.framework import RuntimeTrustEvaluator

    chip = Chip.build(seed=1)
    scenario = calibrate_scenario(chip, simulation_scenario())
    evaluator = RuntimeTrustEvaluator.train(chip, scenario)
    dirty = collect_ed_traces(chip, scenario, 128, trojan_enables=("trojan4",))
    print(evaluator.evaluate(traces=dirty["sensor"]).format())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-reproduction scorecard.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.chip import (
    AcquisitionEngine,
    Chip,
    ChipConfig,
    EncryptionWorkload,
    IdleWorkload,
    Oscilloscope,
    Scenario,
    silicon_scenario,
    simulation_scenario,
)
from repro.framework import (
    AlarmEvent,
    RuntimeMonitor,
    RuntimeTrustEvaluator,
    TrustReport,
    Verdict,
)

__all__ = [
    "__version__",
    "AcquisitionEngine",
    "Chip",
    "ChipConfig",
    "EncryptionWorkload",
    "IdleWorkload",
    "Oscilloscope",
    "Scenario",
    "silicon_scenario",
    "simulation_scenario",
    "AlarmEvent",
    "RuntimeMonitor",
    "RuntimeTrustEvaluator",
    "TrustReport",
    "Verdict",
]
