"""Streaming runtime monitoring — the Fig. 1 deployment, live.

Simulates the deployed system: trace windows stream from the on-chip
sensor to the trusted analysis module one at a time; halfway through,
an attacker arms Trojan 4.  The monitor's sliding separation estimate
crosses its envelope a few windows later and the alarm fires.

Run:  python examples/runtime_monitor.py
"""

from __future__ import annotations

import numpy as np

from repro.chip import simulation_scenario
from repro.chip.calibration import calibrate_scenario
from repro.experiments import shared_chip
from repro.experiments.campaign import collect_ed_traces
from repro.framework import RuntimeMonitor, RuntimeTrustEvaluator
from repro.framework.evaluator import EvaluatorConfig


def main() -> None:
    chip = shared_chip(seed=1)
    scenario = calibrate_scenario(chip, simulation_scenario())

    print("training the evaluator on the golden fingerprint...")
    evaluator = RuntimeTrustEvaluator.train(
        chip, scenario, EvaluatorConfig(n_reference=256)
    )
    monitor = RuntimeMonitor(evaluator, window=24, confirm=3)

    clean = collect_ed_traces(chip, scenario, 96, rng_role="mon/clean")["sensor"]
    dirty = collect_ed_traces(
        chip, scenario, 96, trojan_enables=("trojan4",), rng_role="mon/dirty"
    )["sensor"]
    stream = np.concatenate([clean, dirty], axis=0)
    activation_at = clean.shape[0]

    print(
        f"streaming {stream.shape[0]} encryption windows "
        f"(Trojan 4 activates at window {activation_at})...\n"
    )
    for i, trace in enumerate(stream):
        event = monitor.observe(trace)
        if i >= monitor.window and i % 12 == 0:
            sep = monitor.current_separation()
            bar = "#" * min(48, int(sep / monitor.threshold * 16))
            mark = " <- Trojan active" if i >= activation_at else ""
            print(f"window {i:3d}  sep {sep:7.4f}  |{bar}{mark}")
        if event is not None:
            print(f"\nALARM at window {event.window_index}: {event.message}")
            latency = event.window_index - activation_at
            t_us = latency * 12 / chip.config.f_clk * 1e6
            print(
                f"detection latency: {latency} windows "
                f"({t_us:.1f} us of chip time at 24 MHz)"
            )
            break
    else:
        print("no alarm raised — unexpected; see EXPERIMENTS.md")


if __name__ == "__main__":
    main()
