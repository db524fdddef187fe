"""Electromagnetic models.

The chain follows the paper's simulation flow (Kumar et al., ICCAD'17
style): power-grid segment currents → magnetic coupling → induced emf
in a receiving coil, plus environment/thermal noise and the paper's
SNR definition (Eqs. (2)/(3)).

* :mod:`~repro.em.mutual` — partial mutual inductance between straight
  segments and coil polylines (Neumann double integral, PEEC style);
* :mod:`~repro.em.biot_savart` — direct B-field evaluation, used for
  validation and field maps;
* :mod:`~repro.em.sensor` — the on-chip spiral sensor (paper Fig. 2b);
* :mod:`~repro.em.probe` — the external LANGER-style multi-turn probe
  (paper Fig. 2a);
* :mod:`~repro.em.noise` — environment/thermal noise models;
* :mod:`~repro.em.snr` — RMS-voltage SNR per the paper.
"""

from repro.em.mutual import mutual_inductance_to_loops
from repro.em.biot_savart import b_field_of_segments
from repro.em.sensor import OnChipSensor, SensorArray
from repro.em.probe import ExternalProbe
from repro.em.noise import EnvironmentNoise, thermal_noise_rms, white_noise
from repro.em.snr import SnrResult, measure_snr, rms, snr_db, snr_voltage

__all__ = [
    "mutual_inductance_to_loops",
    "b_field_of_segments",
    "OnChipSensor",
    "SensorArray",
    "ExternalProbe",
    "EnvironmentNoise",
    "thermal_noise_rms",
    "white_noise",
    "SnrResult",
    "measure_snr",
    "rms",
    "snr_db",
    "snr_voltage",
]
