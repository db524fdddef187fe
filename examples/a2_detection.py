"""A2 analog-Trojan detection in the frequency domain (paper Fig. 4).

While the A2 charge pump is being triggered, its strokes add a new comb
at f_clk/3, a spot the original circuit never occupies, and the
framework flags the magnitude change.  The trigger is a gated mod-3
clock divider; the Trojan stays digitally almost invisible (0.087 % of
the AES by area), so the spectrum is where it shows.

Run:  python examples/a2_detection.py
"""

from __future__ import annotations

from repro.chip import simulation_scenario
from repro.experiments import run_a2_spectrum, shared_chip


def main() -> None:
    print("--- Fig. 4: spectral detection of the A2 trigger ---")
    chip = shared_chip(seed=1)
    result = run_a2_spectrum(chip, simulation_scenario(), n_cycles=2048)
    print(result.format())
    f = result.trigger_frequency
    print(
        f"\ngolden amplitude  @ {f / 1e6:.0f} MHz: "
        f"{result.golden.magnitude_at(f):.3e} V"
    )
    print(
        f"triggered amplitude @ {f / 1e6:.0f} MHz: "
        f"{result.triggered.magnitude_at(f):.3e} V"
    )


if __name__ == "__main__":
    main()
