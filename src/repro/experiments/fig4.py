"""Figure 4 — A2 Trojan detection in the frequency domain.

Two long sensor records are compared: the original circuit performing
encryptions (blue in the paper) and the same workload while the A2
charge pump is being triggered by the fast-flipping clock-division
signal (red).  The pump's per-toggle charge packets add energy at the
divider's transition frequency — which coincides with a clock-related
spot of the original spectrum, so the detection criterion is the
*magnitude increase* at that spot (the paper's T = g case).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.spectral import (
    Spectrum,
    SpectralComparison,
    amplitude_spectra,
    compare_spectra,
)
from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.experiments.campaign import get_or_generate_campaigns


@dataclass
class A2SpectrumResult:
    """Golden vs A2-triggering spectra and the comparison verdict."""

    golden: Spectrum
    triggered: Spectrum
    comparison: SpectralComparison
    trigger_frequency: float
    boost_ratio: float = 1.3

    @property
    def detected(self) -> bool:
        """Section IV-D verdict: the magnitude at the known divider spot
        grew by the boost ratio (the T = g case), or the generic
        spectrum comparison found boosted/new spots."""
        return (
            self.magnitude_ratio_at_trigger() >= self.boost_ratio
            or self.comparison.detected
        )

    def magnitude_ratio_at_trigger(self) -> float:
        """Amplitude gain at the trigger line (>= 1 means boosted)."""
        g = self.golden.magnitude_at(self.trigger_frequency)
        t = self.triggered.magnitude_at(self.trigger_frequency)
        return t / max(g, 1e-30)

    def format(self) -> str:
        """Human-readable verdict."""
        lines = [
            f"A2 spectrum inspection @ {self.trigger_frequency / 1e6:.3f} MHz:",
            f"  magnitude gain at trigger line: "
            f"{self.magnitude_ratio_at_trigger():.2f}x",
            f"  boosted spots: "
            + ", ".join(
                f"{f / 1e6:.2f} MHz ({g:.2e}->{s:.2e})"
                for f, g, s in self.comparison.boosted_spots[:6]
            ),
            f"  new spots: "
            + ", ".join(
                f"{f / 1e6:.2f} MHz" for f, _a in self.comparison.new_spots[:6]
            ),
            f"  detected: {self.detected}",
        ]
        return "\n".join(lines)


def run_a2_spectrum(
    chip: Chip,
    scenario: Scenario,
    n_cycles: int = 4096,
    receiver: str = "sensor",
    boost_ratio: float = 1.3,
    band: tuple[float, float] = (1e6, 60e6),
) -> A2SpectrumResult:
    """Reproduce Figure 4 on *receiver*.

    The comparison is band-limited to the clock region (*band*), as in
    the paper's figure, which shows the clock spot and its doubled
    harmonic.
    """
    # One lane-packed pass: the records differ only in the A2 enable
    # and their noise streams, and replay the same plaintexts.
    golden_rec, trig_rec = (
        traces[receiver]
        for traces in get_or_generate_campaigns(chip, scenario, [
            ("spectral", dict(
                n_cycles=n_cycles, trojan_enables=enables,
                receivers=(receiver,), rng_role=f"a2/{role}",
            ))
            for enables, role in (((), "golden"), (("a2",), "trig"))
        ])
    )
    fs = chip.config.fs
    # Both records transform in one batched rfft dispatch.
    golden_full, trig_full = amplitude_spectra([golden_rec, trig_rec], fs)
    golden = golden_full.band(*band)
    triggered = trig_full.band(*band)
    # Pump strokes fire once per trigger-divider period, putting the
    # activation comb's fundamental at f_clk / N — off every original
    # spectral spot for the default mod-3 divider (the T != g case).
    period = chip.trojans["a2"].metadata["trigger_period_cycles"]
    f_trigger = chip.config.f_clk / period
    comparison = compare_spectra(golden, triggered, boost_ratio=boost_ratio)
    return A2SpectrumResult(
        golden=golden,
        triggered=triggered,
        comparison=comparison,
        trigger_frequency=f_trigger,
        boost_ratio=boost_ratio,
    )
