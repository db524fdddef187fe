"""SNR-anchored noise calibration.

The paper never reports its bench's absolute noise levels — only the
resulting SNRs (Eqs. (2)/(3)): 29.976/17.483 dB in simulation and
30.5489/13.8684 dB on silicon.  Those four numbers are therefore the
only honest source for the four unknown noise magnitudes (two receivers
× two scenarios).  :func:`calibrate_scenario` measures each receiver's
noise-free signal RMS under the standard encryption workload and solves
for the additive white-noise RMS that reproduces the target SNR,
accounting for the idle-activity floor that contaminates the paper's
"chip powered but not encrypting" noise record.

Everything *else* the library reports — Euclidean separations,
histogram overlaps, spectral spots — is then a prediction of the
physical model, not a fit.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.chip.acquire import (
    AcquisitionEngine,
    EncryptionWorkload,
    GroupMember,
    IdleWorkload,
)
from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.em.snr import rms
from repro.errors import MeasurementError

#: The paper's reported SNR values [dB], by scenario and receiver.
PAPER_SNR_TARGETS = {
    "simulation": {"sensor": 29.976, "probe": 17.483},
    "silicon": {"sensor": 30.5489, "probe": 13.8684},
}

#: Default key used for the calibration workload.
_CAL_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def calibrate_scenario(
    chip: Chip,
    scenario: Scenario,
    targets: dict[str, float] | None = None,
    n_cycles: int = 1024,
    batch: int = 8,
) -> Scenario:
    """Return a copy of *scenario* with noise overrides hitting *targets*.

    Parameters
    ----------
    chip:
        The chip whose signal levels anchor the calibration.
    scenario:
        Base scenario (process variation, attenuation, scope are kept).
    targets:
        Target SNR per receiver [dB]; defaults to the paper's values
        for the scenario's name.
    """
    if targets is None:
        try:
            targets = PAPER_SNR_TARGETS[scenario.name]
        except KeyError:
            raise MeasurementError(
                f"no default SNR targets for scenario {scenario.name!r}; "
                "pass targets explicitly"
            ) from None
    # The signal and idle records share one lane-packed pass; each
    # equals its solo acquisition byte for byte.
    records = AcquisitionEngine(chip, scenario).acquire_group(
        [
            GroupMember(
                name="signal",
                workload=EncryptionWorkload(chip.aes, _CAL_KEY, period=12),
                batch=batch,
                rng_role="calibration/signal",
            ),
            GroupMember(
                name="idle",
                workload=IdleWorkload(),
                batch=batch,
                rng_role="calibration/idle",
            ),
        ],
        n_cycles=n_cycles,
        include_noise=False,
    )
    signal, idle = records["signal"], records["idle"]
    # Preserve any receiver overrides the scenario already carries and
    # is not being recalibrated for.
    overrides: list[tuple[str, float]] = [
        (name, rms)
        for name, rms in (scenario.noise_overrides or ())
        if name not in targets
    ]
    for name, target_db in targets.items():
        if name not in chip.receivers:
            raise MeasurementError(f"chip has no receiver {name!r}")
        sig = signal.traces[name]
        sig_rms = float(rms(sig - sig.mean()))
        idl = idle.traces[name]
        idle_rms = float(rms(idl - idl.mean()))
        want_noise_record = sig_rms / (10.0 ** (target_db / 20.0))
        add_sq = want_noise_record**2 - idle_rms**2
        if add_sq <= 0:
            raise MeasurementError(
                f"receiver {name!r}: idle-activity floor {idle_rms:.3e} V "
                f"already exceeds the noise record needed for "
                f"{target_db:.2f} dB ({want_noise_record:.3e} V)"
            )
        overrides.append((name, math.sqrt(add_sq)))
    return replace(scenario, noise_overrides=tuple(overrides))
