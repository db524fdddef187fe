"""Baseline: classical power-consumption fingerprinting vs the EM sensor.

The paper's related work dismisses global power fingerprinting
(Agrawal et al. [3]) because stealthy Trojans "are small enough to
evade power consumption based fingerprinting".  Two studies make that
comparison concrete:

* :func:`run_power_baseline` — *runtime self-reference* (this paper's
  setting): the same Eq. (1) pipeline on the EM sensor and on a
  shunt-based supply monitor of the *same die*.  Finding: with a
  golden reference from the very chip under test, even the power
  channel sees the register-bank Trojans — self-reference removes the
  wall that defeats classical fingerprinting.
* :func:`run_crosschip_study` — the *classical* setting [3]: the
  golden model comes from other dies, so ±8 % process variation is in
  the reference.  Finding: small Trojans vanish under the die-to-die
  scatter, exactly the failure mode that motivates the paper's
  post-deployment runtime framework.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.euclidean import EuclideanDetector
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import Scenario
from repro.experiments.campaign import collect_ed_traces

DIGITAL_TROJANS = ("trojan1", "trojan2", "trojan3", "trojan4")


@dataclass
class BaselineComparison:
    """Separation of each Trojan on the EM sensor vs the power monitor."""

    sensor: dict[str, float]
    power: dict[str, float]
    sensor_floor: float
    power_floor: float

    def format(self) -> str:
        lines = [
            f"{'trojan':<9} {'EM sensor':>10} {'power':>10}   (separation; "
            f"floors {self.sensor_floor:.3f} / {self.power_floor:.3f})"
        ]
        for name in self.sensor:
            lines.append(
                f"{name:<9} {self.sensor[name]:>10.3f} "
                f"{self.power[name]:>10.3f}"
            )
        return "\n".join(lines)


def build_power_baseline_chip(seed: int = 1) -> Chip:
    """The standard test chip with the shunt power monitor installed."""
    return Chip.build(
        config=ChipConfig(include_power_monitor=True), seed=seed
    )


def run_power_baseline(
    chip: Chip,
    scenario: Scenario,
    n_golden: int = 512,
    n_suspect: int = 256,
    trojans: tuple[str, ...] = DIGITAL_TROJANS,
    power_snr_db: float = 20.0,
) -> BaselineComparison:
    """Fingerprint every Trojan through both channels.

    *chip* must have been built with ``include_power_monitor=True``.
    The power channel's record-level SNR is calibrated to
    *power_snr_db* (a well-built shunt + amplifier bench); the EM
    receivers keep the paper's figures.
    """
    if "power" not in chip.receivers:
        raise ValueError(
            "chip has no power monitor; build it with "
            "ChipConfig(include_power_monitor=True)"
        )
    from repro.chip.calibration import PAPER_SNR_TARGETS, calibrate_scenario

    base_targets = dict(PAPER_SNR_TARGETS.get(scenario.name, {}))
    base_targets["power"] = power_snr_db
    if scenario.noise_overrides is None:
        scenario = calibrate_scenario(chip, scenario, targets=base_targets)
    elif scenario.noise_override_for("power") is None:
        scenario = calibrate_scenario(
            chip, scenario, targets={"power": power_snr_db}
        )
    receivers = ("sensor", "power")
    golden = collect_ed_traces(
        chip,
        scenario,
        n_golden,
        receivers=receivers,
        rng_role="baseline/golden",
    )
    detectors = {
        rcv: EuclideanDetector().fit(golden[rcv]) for rcv in receivers
    }
    sensor_seps: dict[str, float] = {}
    power_seps: dict[str, float] = {}
    for trojan in trojans:
        suspect = collect_ed_traces(
            chip,
            scenario,
            n_suspect,
            trojan_enables=(trojan,),
            receivers=receivers,
            rng_role=f"baseline/{trojan}",
        )
        sensor_seps[trojan] = detectors["sensor"].separation(suspect["sensor"])
        power_seps[trojan] = detectors["power"].separation(suspect["power"])
    assert detectors["sensor"].separation_floor is not None
    assert detectors["power"].separation_floor is not None
    return BaselineComparison(
        sensor=sensor_seps,
        power=power_seps,
        sensor_floor=detectors["sensor"].separation_floor,
        power_floor=detectors["power"].separation_floor,
    )


@dataclass
class CrossChipStudy:
    """Classical fingerprinting vs runtime self-reference, per Trojan."""

    #: Separation of the device-under-test's *clean* traces from the
    #: golden fleet's fingerprint (pure process variation).
    process_gap: float
    #: Separation of the DUT's Trojan-active traces from the fleet
    #: fingerprint, per Trojan (classical detection signal).
    crosschip: dict[str, float]
    #: Self-referenced separations on the same DUT (runtime setting).
    runtime: dict[str, float]
    #: Self-reference sampling floor.
    runtime_floor: float

    def classical_detects(self, trojan: str, margin: float = 1.3) -> bool:
        """Classical verdict: the Trojan must stand out beyond the
        die-to-die scatter the golden fleet already exhibits."""
        return self.crosschip[trojan] > margin * self.process_gap

    def runtime_detects(self, trojan: str) -> bool:
        return self.runtime[trojan] > self.runtime_floor

    def format(self) -> str:
        lines = [
            f"{'trojan':<9} {'cross-chip':>11} {'runtime':>9}   "
            f"(process gap {self.process_gap:.3f}, "
            f"runtime floor {self.runtime_floor:.3f})"
        ]
        for name in self.crosschip:
            c = "detect" if self.classical_detects(name) else "miss  "
            r = "detect" if self.runtime_detects(name) else "miss  "
            lines.append(
                f"{name:<9} {self.crosschip[name]:>7.3f} {c} "
                f"{self.runtime[name]:>6.3f} {r}"
            )
        return "\n".join(lines)


def run_crosschip_study(
    chip: Chip,
    base_scenario: Scenario,
    n_golden: int = 384,
    n_suspect: int = 256,
    trojans: tuple[str, ...] = DIGITAL_TROJANS,
    fleet_seeds: tuple[int, ...] = (11, 12, 13),
    dut_seed: int = 99,
    receiver: str = "sensor",
) -> CrossChipStudy:
    """Classical (cross-die) vs runtime (self-referenced) detection.

    Different dies are emulated by re-seeding the silicon scenario's
    process-variation stream; *base_scenario* must be a silicon-style
    scenario (``process_sigma > 0``).
    """
    from dataclasses import replace

    if base_scenario.process_sigma <= 0:
        raise ValueError("cross-chip study needs process variation")

    def traces_for(seed: int, enables: tuple[str, ...], role: str):
        scen = replace(base_scenario, seed=seed)
        return collect_ed_traces(
            chip,
            scen,
            n_golden if not enables else n_suspect,
            trojan_enables=enables,
            receivers=(receiver,),
            rng_role=role,
        )[receiver]

    # Golden fleet: clean traces from several other dies.
    import numpy as np

    fleet = np.concatenate(
        [traces_for(s, (), f"fleet/{s}") for s in fleet_seeds], axis=0
    )
    fleet_detector = EuclideanDetector().fit(fleet)

    # The DUT's own clean traces sit away from the fleet fingerprint by
    # the process gap; its Trojan traces must beat that to be detected.
    dut_clean = traces_for(dut_seed, (), "dut/clean")
    process_gap = fleet_detector.separation(dut_clean)

    crosschip: dict[str, float] = {}
    runtime: dict[str, float] = {}
    dut_detector = EuclideanDetector().fit(dut_clean)
    for trojan in trojans:
        dut_dirty = traces_for(dut_seed, (trojan,), f"dut/{trojan}")
        crosschip[trojan] = fleet_detector.separation(dut_dirty)
        runtime[trojan] = dut_detector.separation(dut_dirty)
    assert dut_detector.separation_floor is not None
    return CrossChipStudy(
        process_gap=process_gap,
        crosschip=crosschip,
        runtime=runtime,
        runtime_floor=dut_detector.separation_floor,
    )
