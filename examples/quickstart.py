"""Quickstart: build the paper's test chip, train the trust framework,
catch a Trojan.

Builds the security-enhanced AES die (on-chip EM sensor + four digital
Trojans + the A2 analog Trojan), characterises the golden EM
fingerprint, then activates Trojan 4 and watches the runtime framework
raise the alarm.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.chip import simulation_scenario
from repro.experiments.campaign import calibrated, collect_ed_traces, shared_chip
from repro.framework import RuntimeTrustEvaluator


def main() -> None:
    print("Building the test chip (AES-128 + 4 digital Trojans + A2)...")
    # shared_chip/calibrated are the memoised helpers every experiment
    # driver and the `repro` CLI use — repeated runs in one process
    # reuse the same chip and calibration.
    chip = shared_chip(seed=1)
    print(chip.describe())
    print()

    print("Calibrating the measurement bench to the paper's SNR figures...")
    scenario = calibrated(chip, simulation_scenario())

    print("Training the trust evaluator on the golden fingerprint...")
    evaluator = RuntimeTrustEvaluator.train(chip, scenario)

    print("\n--- evaluating the dormant chip (all Trojans off) ---")
    clean = collect_ed_traces(chip, scenario, 128, rng_role="quickstart/clean")
    report = evaluator.evaluate(traces=clean["sensor"])
    print(report.format())

    print("\n--- evaluating with Trojan 4 (power waster) active ---")
    dirty = collect_ed_traces(
        chip,
        scenario,
        128,
        trojan_enables=("trojan4",),
        rng_role="quickstart/dirty",
    )
    report = evaluator.evaluate(traces=dirty["sensor"])
    print(report.format())

    if report.verdict.is_alarm:
        print("\nALARM: hardware Trojan activity detected at runtime.")
    else:
        print("\nNo alarm raised — unexpected; see EXPERIMENTS.md.")

    print(
        "\nNext: `repro list` shows every reproduced table/figure; "
        "`repro run --all --smoke` reproduces them end to end."
    )


if __name__ == "__main__":
    main()
