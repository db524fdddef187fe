"""Registry plugin for the paper's Euclidean-distance detector.

A thin subclass of :class:`repro.analysis.euclidean.EuclideanDetector`:
every numeric path (fit statistics, features, distances, state round
trip) is inherited unchanged, so selecting ``"euclidean"`` through the
registry is bit-identical to constructing the analysis class directly.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.euclidean import EuclideanDetector
from repro.detectors.base import DetectorDecision, DetectorInfo
from repro.detectors.registry import register_detector
from repro.errors import AnalysisError


@register_detector
class EuclideanPlugin(EuclideanDetector):
    """Golden-fingerprint Euclidean distance with the Eq. (1) threshold."""

    info = DetectorInfo(
        name="euclidean",
        summary=(
            "Per-window L2 distance to the golden mean fingerprint in "
            "unit-norm trace space; Eq. (1) max intra-golden threshold"
        ),
        reference_free=False,
        paper_ref="Section IV-C, Eq. (1)",
    )
    #: Feature extraction is row-independent, so the dense batched
    #: fleet engine can score this detector (unless PCA is fitted:
    #: the engine checks ``uses_pca`` too).
    supports_batched = True

    def score(self, traces: np.ndarray) -> np.ndarray:
        """Per-window anomaly score = distance to the fingerprint."""
        return self.distances(traces)

    def decide(self, scores: np.ndarray) -> DetectorDecision:
        """Verdict at the Eq. (1) operating point: the population is
        flagged when most windows exceed the max intra-golden
        distance."""
        if self.threshold is None:
            raise AnalysisError("detector used before fit()")
        s = np.asarray(scores, dtype=np.float64)
        exceed = float((s > self.threshold).mean()) if s.size else 0.0
        return DetectorDecision(
            detected=exceed > 0.5,
            threshold=float(self.threshold),
            exceed_fraction=exceed,
        )
