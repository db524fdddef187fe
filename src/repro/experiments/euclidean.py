"""Section IV-C — simulated Euclidean distances of the four Trojans.

"The Euclidean distances between the reference circuit and Trojan 1,
2, 3, and 4 circuits are 0.27, 0.25, 0.05, and 0.28, respectively."

The driver trains the Eq. (1) detector on golden sensor traces, then
computes each Trojan's separation (distance between the golden
fingerprint and the mean suspect feature vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.euclidean import DistanceReport
from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.experiments.campaign import get_or_fit_detector
from repro.experiments.parallel import campaign_spec, run_campaigns

#: Paper's simulated EDs (on-chip sensor).
PAPER_EUCLIDEAN = {
    "trojan1": 0.27,
    "trojan2": 0.25,
    "trojan3": 0.05,
    "trojan4": 0.28,
}

DIGITAL_TROJANS = ("trojan1", "trojan2", "trojan3", "trojan4")


@dataclass
class EuclideanExperimentResult:
    """Separations + full reports per Trojan per receiver."""

    receiver: str
    threshold: float
    separations: dict[str, float]
    reports: dict[str, DistanceReport] = field(default_factory=dict)

    def format(self) -> str:
        """Render with the paper's values alongside."""
        lines = [
            f"Euclidean distances ({self.receiver}); "
            f"EDth (Eq. 1) = {self.threshold:.3f}"
        ]
        for name, sep in self.separations.items():
            ref = PAPER_EUCLIDEAN.get(name)
            ref_txt = f"  (paper: {ref:.2f})" if ref is not None else ""
            rep = self.reports.get(name)
            extra = (
                f", mean trace distance {rep.mean_distance:.3f}"
                if rep is not None
                else ""
            )
            lines.append(f"  {name:<9} ED = {sep:.3f}{extra}{ref_txt}")
        return "\n".join(lines)


def run_euclidean_experiment(
    chip: Chip,
    scenario: Scenario,
    receiver: str = "sensor",
    n_golden: int = 1024,
    n_suspect: int = 384,
    trojans: tuple[str, ...] = DIGITAL_TROJANS,
    workers: int | None = None,
) -> EuclideanExperimentResult:
    """Compute Section IV-C's Euclidean distances for *receiver*.

    The golden and per-Trojan campaigns fan out across *workers*
    processes (see :mod:`repro.experiments.parallel`); results match
    the serial loop exactly.
    """
    specs = [
        campaign_spec(
            "golden",
            "ed",
            chip,
            scenario,
            n_traces=n_golden,
            receivers=(receiver,),
            rng_role="euclid/golden",
        )
    ]
    specs += [
        campaign_spec(
            name,
            "ed",
            chip,
            scenario,
            n_traces=n_suspect,
            trojan_enables=(name,),
            receivers=(receiver,),
            rng_role=f"euclid/{name}",
        )
        for name in trojans
    ]
    traces = run_campaigns(specs, workers=workers)
    detector = get_or_fit_detector(
        chip, scenario, "ed", dict(specs[0].params), traces["golden"][receiver]
    )
    separations: dict[str, float] = {}
    reports: dict[str, DistanceReport] = {}
    for name in trojans:
        report = detector.evaluate(traces[name][receiver])
        separations[name] = report.separation
        reports[name] = report
    assert detector.threshold is not None
    return EuclideanExperimentResult(
        receiver=receiver,
        threshold=detector.threshold,
        separations=separations,
        reports=reports,
    )
