"""Sections IV-B and V-A — on-chip sensor vs external probe SNR.

The paper's procedure, reproduced verbatim: record the receivers while
the chip idles (noise record), record while it encrypts (signal
record), form the RMS ratio (Eq. (2)) and convert to dB (Eq. (3)).
Running the same experiment under the *simulation* scenario gives the
Section IV-B numbers; under the *silicon* scenario, the Section V-A
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.em.snr import SnrResult, measure_snr
from repro.experiments.campaign import (
    DEFAULT_KEY,
    get_or_generate_campaigns,
)

#: Paper values for side-by-side reporting (dB).
PAPER_SNR = {
    "simulation": {"sensor": 29.976, "probe": 17.483},
    "silicon": {"sensor": 30.5489, "probe": 13.8684},
}


@dataclass
class SnrExperimentResult:
    """SNR of both receivers under one scenario."""

    scenario: str
    per_receiver: dict[str, SnrResult]

    def format(self) -> str:
        """Render with the paper's values alongside."""
        lines = [f"SNR ({self.scenario} scenario)"]
        paper = PAPER_SNR.get(self.scenario, {})
        for name, res in self.per_receiver.items():
            ref = paper.get(name)
            ref_txt = f"  (paper: {ref:.2f} dB)" if ref is not None else ""
            lines.append(
                f"  {name:<8} {res.snr_db:7.3f} dB "
                f"(signal {res.signal_rms:.3e} V, noise {res.noise_rms:.3e} V)"
                f"{ref_txt}"
            )
        return "\n".join(lines)


def run_snr_experiment(
    chip: Chip,
    scenario: Scenario,
    n_cycles: int = 1024,
    batch: int = 8,
    key: bytes = DEFAULT_KEY,
) -> SnrExperimentResult:
    """Measure both receivers' SNR under *scenario*.

    Both records route through the shared cache entry point, so a
    repeated run (or another driver requesting the same records)
    serves them from disk instead of re-simulating.
    """
    # The signal and idle records share one lane-packed pass.
    signal, noise = get_or_generate_campaigns(chip, scenario, [
        ("raw", dict(
            n_cycles=n_cycles, batch=batch, encrypting=encrypting, key=key,
            rng_role=f"snr/{role}",
        ))
        for encrypting, role in ((True, "signal"), (False, "noise"))
    ])
    per_receiver = {
        name: measure_snr(signal[name], noise[name])
        for name in chip.receivers
    }
    return SnrExperimentResult(
        scenario=scenario.name,
        per_receiver=per_receiver,
    )
