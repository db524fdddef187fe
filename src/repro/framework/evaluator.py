"""The trained trust evaluator.

"We assume the users know how the circuit will operate, thus the
features of the circuit's EM side-channel can be defined through
simulations" — :meth:`RuntimeTrustEvaluator.train` plays that role: it
characterises the golden chip once (time-domain fingerprint + spectrum)
and afterwards judges any suspect trace set against the stored
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.euclidean import EuclideanDetector
from repro.analysis.spectral import (
    Spectrum,
    amplitude_spectrum,
    compare_spectra,
)
from repro.chip.chip import Chip
from repro.chip.scenario import Scenario, simulation_scenario
from repro.config import active_config
from repro.errors import AnalysisError
from repro.experiments.campaign import (
    get_or_fit_detector,
    get_or_generate_traces,
)
from repro.framework.report import TrustReport, combine_verdicts


@dataclass
class EvaluatorConfig:
    """Training/evaluation knobs."""

    receiver: str = "sensor"
    n_reference: int = 512
    spectral_cycles: int = 2048
    spectral_boost_ratio: float = 1.6
    #: Registry name of the window detector; ``None`` resolves the
    #: active configuration's ``detector`` knob (``REPRO_DETECTOR``).
    detector: str | None = None


class RuntimeTrustEvaluator:
    """Golden reference + the two detection paths of Fig. 1."""

    def __init__(
        self,
        detector: EuclideanDetector,
        golden_spectrum: Spectrum,
        fs: float,
        config: EvaluatorConfig,
    ) -> None:
        self.detector = detector
        self.golden_spectrum = golden_spectrum
        self.fs = fs
        self.config = config

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        chip: Chip,
        scenario: Scenario | None = None,
        config: EvaluatorConfig | None = None,
    ) -> "RuntimeTrustEvaluator":
        """Characterise the golden chip.

        *chip* must be Trojan-free or have all Trojans dormant; the
        evaluator assumes what it sees during training is trusted (the
        paper's pre-deployment characterisation step).
        """
        scenario = scenario or simulation_scenario()
        config = config or EvaluatorConfig()
        ed_params = dict(
            n_traces=config.n_reference,
            receivers=(config.receiver,),
            rng_role="framework/train-ed",
        )
        golden = get_or_generate_traces(chip, scenario, "ed", **ed_params)[
            config.receiver
        ]
        detector_name = (
            config.detector
            if config.detector is not None
            else active_config().detector
        )
        detector = get_or_fit_detector(
            chip,
            scenario,
            "ed",
            ed_params,
            golden,
            detector_name=detector_name,
        )
        record = get_or_generate_traces(
            chip,
            scenario,
            "spectral",
            n_cycles=config.spectral_cycles,
            receivers=(config.receiver,),
            rng_role="framework/train-spec",
        )[config.receiver]
        spectrum = amplitude_spectrum(record, chip.config.fs)
        return cls(
            detector=detector,
            golden_spectrum=spectrum,
            fs=chip.config.fs,
            config=config,
        )

    # ------------------------------------------------------------------
    def evaluate_spectrum(self, record: np.ndarray) -> TrustReport:
        """Frequency-domain evaluation of a long continuous record."""
        suspect = amplitude_spectrum(record, self.fs)
        if suspect.freqs.shape != self.golden_spectrum.freqs.shape:
            raise AnalysisError(
                "suspect record length differs from the training record; "
                f"expected spectra of {self.golden_spectrum.freqs.shape[0]} "
                f"bins, got {suspect.freqs.shape[0]}"
            )
        comparison = compare_spectra(
            self.golden_spectrum,
            suspect,
            boost_ratio=self.config.spectral_boost_ratio,
        )
        verdict = combine_verdicts(False, comparison.detected)
        return TrustReport(verdict=verdict, spectral=comparison)

    def evaluate(
        self,
        traces: np.ndarray | None = None,
        record: np.ndarray | None = None,
    ) -> TrustReport:
        """Joint evaluation; pass either or both inputs."""
        if traces is None and record is None:
            raise AnalysisError("need trace windows, a long record, or both")
        time_report = None
        spectral = None
        if traces is not None:
            if not hasattr(self.detector, "evaluate"):
                raise AnalysisError(
                    "one-shot DistanceReport evaluation needs a golden-"
                    "based detector; use score()/decide() via the "
                    "registry"
                )
            time_report = self.detector.evaluate(traces)
        if record is not None:
            spectral = self.evaluate_spectrum(record).spectral
        verdict = combine_verdicts(
            bool(time_report.detected) if time_report is not None else False,
            bool(spectral.detected) if spectral is not None else False,
        )
        return TrustReport(verdict=verdict, distance=time_report, spectral=spectral)
