"""The trained trust evaluator.

"We assume the users know how the circuit will operate, thus the
features of the circuit's EM side-channel can be defined through
simulations" — :meth:`RuntimeTrustEvaluator.train` plays that role: it
characterises the golden chip once (the time-domain fingerprint) and
afterwards judges any suspect trace set against the stored reference.
Fig. 1's spectral path runs in the fleet campaign
(:func:`repro.fleet.campaign.run_fleet_campaign`), which compares each
chip's long record against a golden one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.euclidean import EuclideanDetector
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
    #: Registry name of the window detector; ``None`` resolves the
    #: active configuration's ``detector`` knob (``REPRO_DETECTOR``).
    detector: str | None = None


class RuntimeTrustEvaluator:
    """Golden reference + the time-domain detection path of Fig. 1."""

    def __init__(
        self,
        detector: EuclideanDetector,
        config: EvaluatorConfig,
        golden_spectrum: None = None,
        fs: float | None = None,
    ) -> None:
        """*golden_spectrum* and *fs* are accepted for callers that
        still pass them (``golden_spectrum=None``); both are unused."""
        self.detector = detector
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
        return cls(detector=detector, config=config)

    # ------------------------------------------------------------------
    def evaluate(self, traces: np.ndarray) -> TrustReport:
        """Time-domain evaluation of a set of trace windows."""
        if not hasattr(self.detector, "evaluate"):
            raise AnalysisError(
                "one-shot DistanceReport evaluation needs a golden-"
                "based detector; use score()/decide() via the "
                "registry"
            )
        report = self.detector.evaluate(traces)
        return TrustReport(
            verdict=combine_verdicts(bool(report.detected), False),
            distance=report,
        )
