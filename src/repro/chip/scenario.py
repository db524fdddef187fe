"""Measurement scenarios: ideal simulation vs fabricated silicon.

The paper evaluates twice — Section IV by layout-level EM simulation
and Section V on fabricated chips — and the differences between the two
sets of numbers come entirely from measurement reality.  A
:class:`Scenario` packages those differences:

* **simulation**: no process variation, mild white environment noise,
  ideal acquisition;
* **silicon**: per-cell process variation (lognormal drive/cap
  scatter), stronger ambient noise, packaging attenuation on the
  external probe path (the on-chip sensor, being inside the package,
  is unaffected), and an oscilloscope front end.

Noise levels are stated as ambient dB/dt densities; each receiver
converts them through its own effective area, which is what reproduces
the paper's asymmetric SNR outcome (the probe degrades from 17.5 dB to
13.9 dB on silicon while the sensor holds around 30 dB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.oscilloscope import Oscilloscope
from repro.em.noise import EnvironmentNoise
from repro.rng import derive

#: Upper edge of the probe's coloured (EMI) noise band [Hz].
PROBE_INBAND_CUTOFF = 100e6


@dataclass(frozen=True)
class Scenario:
    """One measurement context."""

    name: str
    env_noise: EnvironmentNoise
    #: Lognormal sigma of per-cell switching-charge scatter (0 = ideal).
    process_sigma: float = 0.0
    #: Amplitude factor applied to the external probe's *signal* path
    #: (package lid / bond-wire shadowing); 1.0 = unattenuated.
    probe_attenuation: float = 1.0
    #: Extra multiplicative factor on the probe's environment-noise
    #: pickup (bench cabling and lab ambience; the on-chip sensor's
    #: pickup is fixed by its area alone).
    probe_env_factor: float = 1.0
    oscilloscope: Oscilloscope | None = None
    seed: int = 0
    #: Fraction of the external probe's noise *power* concentrated
    #: below :data:`PROBE_INBAND_CUTOFF` (bench EMI: mains harmonics,
    #: radio, switching supplies).  The on-chip sensor's floor is
    #: genuinely white (thermal), so this colouring is what makes probe
    #: trace shapes wander far more than sensor shapes at equal
    #: record-level SNR — the effect behind Fig. 6's probe-vs-sensor
    #: separability gap.
    probe_inband_fraction: float = 1.0
    #: Per-trace positional-drift noise of the hand-positioned probe,
    #: as a fraction of the probe's signal RMS.  Re-seating/standoff
    #: wobble re-weights which die regions the probe sees, distorting
    #: the trace *shape* in proportion to the signal — variance the
    #: wire-bonded on-chip sensor simply does not have.  This is the
    #: dominant reason the paper's probe histograms (Fig. 6a-d) smear
    #: while the record-level SNR still reads 13.9 dB.
    probe_drift_fraction: float = 0.0
    #: Absolute receiver noise RMS overrides [V], keyed by receiver
    #: name.  When set for a receiver, the engine adds exactly this
    #: much white noise instead of deriving it from the environment /
    #: thermal models — used by the SNR auto-calibration, which anchors
    #: the unknowable bench noise magnitudes to the paper's reported
    #: SNR figures.
    noise_overrides: tuple[tuple[str, float], ...] | None = None

    def noise_override_for(self, receiver: str) -> float | None:
        """Absolute noise RMS override for *receiver*, if any."""
        if self.noise_overrides is None:
            return None
        for name, rms in self.noise_overrides:
            if name == receiver:
                return rms
        return None

    def cell_charge_scale(
        self, n_cells: int, chip_seed: int
    ) -> np.ndarray | None:
        """Per-cell process-variation factors (None when ideal)."""
        if self.process_sigma <= 0.0:
            return None
        rng = derive(chip_seed ^ self.seed, f"process/{self.name}")
        return rng.lognormal(0.0, self.process_sigma, size=n_cells)


#: Ambient dB/dt RMS used for Section IV-style simulations [T/s].
#: Calibrated so the *probe* (whose noise floor is its large-area
#: ambient pickup) lands near the paper's 17.5 dB; the sensor's floor
#: is its own trace thermal noise, landing it near 30 dB.
SIMULATION_B_DOT_RMS = 2.9e-2

#: Ambient dB/dt RMS on the lab bench (Section V) [T/s].
SILICON_B_DOT_RMS = 3.2e-2


def simulation_scenario(seed: int = 0) -> Scenario:
    """Section IV: layout-level EM simulation with white noise added."""
    return Scenario(
        name="simulation",
        env_noise=EnvironmentNoise(SIMULATION_B_DOT_RMS),
        process_sigma=0.0,
        probe_attenuation=1.0,
        probe_env_factor=1.0,
        oscilloscope=None,
        seed=seed,
    )


def array_scenario(rows: int = 4, cols: int = 4, seed: int = 0) -> Scenario:
    """Sensor-array localization runs: simulation-grade acquisition.

    The array follow-up (programmable coil grid) is evaluated in the
    same layout-level simulation regime as Section IV — no process
    variation, white ambient noise — but the scenario *name* carries
    the grid dimensions so trace-cache keys and RNG streams for
    different array shapes can never collide.  The matching chip build
    is ``ChipConfig(sensor_array_rows=rows, sensor_array_cols=cols)``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"array scenario needs rows, cols >= 1, got {rows}x{cols}")
    return Scenario(
        name=f"array{rows}x{cols}",
        env_noise=EnvironmentNoise(SIMULATION_B_DOT_RMS),
        process_sigma=0.0,
        probe_attenuation=1.0,
        probe_env_factor=1.0,
        oscilloscope=None,
        seed=seed,
    )


def silicon_scenario(seed: int = 0) -> Scenario:
    """Section V: fabricated chip on the bench, measured by a scope."""
    return Scenario(
        name="silicon",
        env_noise=EnvironmentNoise(SILICON_B_DOT_RMS),
        process_sigma=0.08,
        probe_attenuation=0.66,
        probe_env_factor=1.0,
        probe_drift_fraction=0.8,
        oscilloscope=Oscilloscope(),
        seed=seed,
    )
