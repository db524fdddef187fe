"""Runtime detection latency — how fast does the framework react?

The paper positions the framework as *runtime* ("continuously monitors
the circuit status and triggers an alarm"), so the operative figure of
merit beyond accuracy is latency: how many encryption windows after a
Trojan activates does the alarm fire?  This driver feeds the streaming
monitor a golden prefix followed by Trojan-active windows and measures
the alarm delay per Trojan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.errors import ExperimentError
from repro.experiments.campaign import get_or_generate_campaigns

DIGITAL_TROJANS = ("trojan1", "trojan2", "trojan3", "trojan4")


@dataclass
class LatencyResult:
    """Alarm latency per Trojan, in encryption windows."""

    #: Windows between Trojan activation and the alarm; None = missed
    #: within the observation horizon.
    latency_windows: dict[str, int | None]
    #: Encryption-window duration [s] for converting to wall time.
    window_seconds: float
    horizon: int
    false_alarms_on_golden: int

    def latency_seconds(self, trojan: str) -> float | None:
        lw = self.latency_windows[trojan]
        return None if lw is None else lw * self.window_seconds

    def format(self) -> str:
        lines = [
            f"runtime detection latency (horizon {self.horizon} windows, "
            f"{self.false_alarms_on_golden} false alarms on golden)"
        ]
        for name, lw in self.latency_windows.items():
            if lw is None:
                lines.append(f"  {name:<9} missed within horizon")
            else:
                us = lw * self.window_seconds * 1e6
                lines.append(f"  {name:<9} {lw:4d} windows  ({us:8.1f} us)")
        return "\n".join(lines)


def run_detection_latency(
    chip: Chip,
    scenario: Scenario,
    trojans: tuple[str, ...] = DIGITAL_TROJANS,
    n_reference: int = 384,
    golden_prefix: int = 64,
    horizon: int = 512,
    window: int = 32,
    confirm: int = 3,
) -> LatencyResult:
    """Measure the streaming monitor's alarm latency for each Trojan."""
    # Imported here: the framework package itself imports the
    # experiment campaign helpers, so a module-level import would cycle.
    from repro.framework.evaluator import EvaluatorConfig, RuntimeTrustEvaluator
    from repro.framework.monitor import RuntimeMonitor

    if golden_prefix < window:
        raise ExperimentError(
            f"golden prefix {golden_prefix} shorter than the monitor "
            f"window {window}"
        )
    evaluator = RuntimeTrustEvaluator.train(
        chip,
        scenario,
        EvaluatorConfig(n_reference=n_reference, spectral_cycles=512),
    )
    receiver = evaluator.config.receiver
    # The golden prefix and every Trojan's stream in one request list:
    # the Trojan streams share one lane-packed pass.
    golden_stream, *dirty_streams = (
        traces[receiver]
        for traces in get_or_generate_campaigns(chip, scenario, [
            ("ed", dict(
                n_traces=golden_prefix, receivers=(receiver,),
                rng_role="latency/golden",
            )),
        ] + [
            ("ed", dict(
                n_traces=horizon, trojan_enables=(trojan,),
                receivers=(receiver,), rng_role=f"latency/{trojan}",
            ))
            for trojan in trojans
        ])
    )

    latencies: dict[str, int | None] = {}
    false_alarms = 0
    for trojan, dirty in zip(trojans, dirty_streams):
        monitor = RuntimeMonitor(evaluator, window=window, confirm=confirm)
        pre_events = monitor.observe_stream(golden_stream)
        false_alarms += len(pre_events)
        latency: int | None = None
        for i, trace in enumerate(dirty):
            if monitor.observe(trace) is not None:
                latency = i + 1
                break
        latencies[trojan] = latency

    from repro.experiments.campaign import ED_PERIOD

    return LatencyResult(
        latency_windows=latencies,
        window_seconds=ED_PERIOD / chip.config.f_clk,
        horizon=horizon,
        false_alarms_on_golden=false_alarms,
    )
