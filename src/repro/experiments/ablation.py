"""Design-space ablations (DESIGN.md §5, paper Section VI future work).

Four studies on the design choices the paper leaves open:

* :func:`sweep_sensor_turns` — coil turns vs resistance/area/SNR;
* :func:`sweep_probe_standoff` — probe distance vs SNR (why on-chip wins);
* :func:`sweep_pca_dimensions` — PCA denoising depth vs detection quality;
* :func:`threshold_study` — Eq. (1) max-threshold vs percentile
  thresholds on the detection ROC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.euclidean import EuclideanDetector
from repro.analysis.metrics import score_detection
from repro.chip.acquire import AcquisitionEngine, EncryptionWorkload, IdleWorkload
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import Scenario, simulation_scenario
from repro.detectors.roc import roc_curve
from repro.em.snr import measure_snr
from repro.experiments.campaign import DEFAULT_KEY, collect_ed_traces
from repro.units import UM


@dataclass
class SweepPoint:
    """One point of a one-dimensional design sweep."""

    parameter: float
    snr_db: float
    extra: dict


def _receiver_snr(chip: Chip, scenario: Scenario, receiver: str) -> float:
    engine = AcquisitionEngine(chip, scenario)
    sig = engine.acquire(
        EncryptionWorkload(chip.aes, DEFAULT_KEY, period=12),
        n_cycles=256,
        batch=4,
        rng_role="ablation/sig",
    )
    noi = engine.acquire(
        IdleWorkload(), n_cycles=256, batch=4, rng_role="ablation/noise"
    )
    return measure_snr(sig.traces[receiver], noi.traces[receiver]).snr_db


def sweep_sensor_turns(
    turns_list: tuple[int, ...] = (4, 8, 12, 16),
    seed: int = 1,
) -> list[SweepPoint]:
    """Coil turn count vs sensor SNR and electrical properties."""
    points = []
    for turns in turns_list:
        chip = Chip.build(
            config=ChipConfig(sensor_turns=turns), trojans=(), seed=seed
        )
        points.append(
            SweepPoint(
                parameter=float(turns),
                snr_db=_receiver_snr(chip, simulation_scenario(), "sensor"),
                extra={
                    "resistance_ohm": chip.sensor.resistance(),
                    "effective_area_mm2": chip.sensor.effective_area() * 1e6,
                },
            )
        )
    return points


def sweep_probe_standoff(
    standoffs: tuple[float, ...] = (50 * UM, 100 * UM, 200 * UM, 400 * UM),
    seed: int = 1,
) -> list[SweepPoint]:
    """Probe standoff vs probe SNR (the near-field decay argument).

    The package-loop coupling is disabled for this sweep: it is
    standoff-independent at these distances and would mask the direct
    die radiation whose 1/r decay the ablation quantifies.
    """
    points = []
    for standoff in standoffs:
        chip = Chip.build(
            config=ChipConfig(
                probe_standoff=standoff, package_loop_coupling=0.0
            ),
            trojans=(),
            seed=seed,
        )
        points.append(
            SweepPoint(
                parameter=standoff,
                snr_db=_receiver_snr(chip, simulation_scenario(), "probe"),
                extra={},
            )
        )
    return points


@dataclass
class PcaPoint:
    """Detection quality at one PCA depth."""

    n_components: int | None
    auc: float
    separation: float


def sweep_pca_dimensions(
    chip: Chip,
    scenario: Scenario,
    trojan: str = "trojan4",
    depths: tuple[int | None, ...] = (None, 2, 4, 8, 16, 32),
    n_golden: int = 384,
    n_suspect: int = 256,
) -> list[PcaPoint]:
    """PCA denoising depth vs detection quality for one Trojan."""
    golden = collect_ed_traces(
        chip, scenario, n_golden, receivers=("sensor",), rng_role="abl/g"
    )["sensor"]
    suspect = collect_ed_traces(
        chip,
        scenario,
        n_suspect,
        trojan_enables=(trojan,),
        receivers=("sensor",),
        rng_role="abl/s",
    )["sensor"]
    points = []
    for depth in depths:
        det = EuclideanDetector(n_components=depth).fit(golden)
        t_d = det.distances(suspect)
        points.append(
            PcaPoint(
                n_components=depth,
                auc=roc_curve(det.golden_distances, t_d).auc,
                separation=det.separation(suspect),
            )
        )
    return points


@dataclass
class ThresholdPoint:
    """Detection metrics at one threshold rule."""

    rule: str
    threshold: float
    true_positive_rate: float
    false_positive_rate: float


def threshold_study(
    chip: Chip,
    scenario: Scenario,
    trojan: str = "trojan4",
    n_golden: int = 384,
    n_suspect: int = 256,
) -> list[ThresholdPoint]:
    """Eq. (1) max-intra-golden threshold vs percentile alternatives."""
    golden = collect_ed_traces(
        chip, scenario, n_golden, receivers=("sensor",), rng_role="thr/g"
    )["sensor"]
    suspect = collect_ed_traces(
        chip,
        scenario,
        n_suspect,
        trojan_enables=(trojan,),
        receivers=("sensor",),
        rng_role="thr/s",
    )["sensor"]
    det = EuclideanDetector().fit(golden)
    g_d = det.golden_distances
    t_d = det.distances(suspect)
    assert det.threshold is not None and g_d is not None
    rules = [("eq1-max", det.threshold)] + [
        (f"p{p}", float(np.percentile(g_d, p))) for p in (90, 95, 99)
    ]
    out = []
    for rule, thr in rules:
        m = score_detection(g_d, t_d, thr)
        out.append(
            ThresholdPoint(
                rule=rule,
                threshold=thr,
                true_positive_rate=m.true_positive_rate,
                false_positive_rate=m.false_positive_rate,
            )
        )
    return out
