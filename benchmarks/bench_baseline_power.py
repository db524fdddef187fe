"""Bench: power-fingerprinting baseline vs the EM framework.

Two studies behind the paper's motivation:

* runtime self-reference — both channels fingerprint the same die they
  were trained on;
* the classical cross-chip setting of Agrawal et al. [3] — the golden
  model comes from *other* dies, so process variation is in the
  reference and small Trojans drown ("attackers evade those
  approaches"), while the runtime framework still detects them.
"""

from conftest import run_once

from repro.chip import simulation_scenario
from repro.experiments.baseline_power import (
    build_power_baseline_chip,
    run_crosschip_study,
    run_power_baseline,
)


def test_baseline_power_self_reference(benchmark):
    chip = build_power_baseline_chip(seed=1)
    result = run_once(
        benchmark, run_power_baseline, chip, simulation_scenario()
    )

    print("\n=== baseline: EM sensor vs power shunt (self-reference) ===")
    print(result.format())

    # Self-reference is powerful: both channels rank the Trojans the
    # same way and T3 stays the hardest on both.
    assert min(result.sensor, key=result.sensor.get) == "trojan3"
    assert min(result.power, key=result.power.get) == "trojan3"
    assert result.sensor["trojan4"] == max(result.sensor.values())


def test_baseline_crosschip_process_variation(benchmark, chip, sil_scenario):
    result = run_once(
        benchmark,
        run_crosschip_study,
        chip,
        sil_scenario,
        n_golden=256,
        n_suspect=192,
    )

    print("\n=== baseline: classical cross-chip fingerprinting ===")
    print(result.format())

    # Process variation separates even the CLEAN device from the fleet.
    assert result.process_gap > 0
    # The classical approach misses at least the small Trojans...
    missed = [
        t for t in ("trojan1", "trojan2", "trojan3")
        if not result.classical_detects(t)
    ]
    assert missed, "process variation should hide the small Trojans"
    # ...which the runtime (self-referenced) framework still catches.
    for trojan in ("trojan1", "trojan2", "trojan4"):
        assert result.runtime_detects(trojan), trojan
