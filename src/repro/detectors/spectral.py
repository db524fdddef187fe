"""Registry plugin for the golden-based spectral check (Section IV-D).

Reuses the Euclidean machinery in *spectrum* feature space: features
are per-window Hann amplitude spectra instead of unit-norm trace
shapes, and the golden statistics (fingerprint = mean golden spectrum,
Eq. (1)-style max intra-golden spectral distance, bootstrap separation
floor) come from the shared
:meth:`~repro.analysis.euclidean.EuclideanDetector._fit_stats` path.
On top of that it keeps the paper's boost rule: a window whose
amplitude exceeds ``boost_ratio`` × the golden spectrum in any bin is
anomalous, mirroring :func:`repro.analysis.spectral.compare_spectra`'s
magnitude-increase criterion per window.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.euclidean import EuclideanDetector
from repro.detectors.base import (
    DetectorDecision,
    DetectorInfo,
    window_spectra,
)
from repro.detectors.registry import register_detector
from repro.errors import AnalysisError


@register_detector
class SpectralPlugin(EuclideanDetector):
    """Golden-spectrum boost detector over per-window spectra."""

    info = DetectorInfo(
        name="spectral",
        summary=(
            "Per-window amplitude spectrum vs the golden mean spectrum; "
            "flags boost_ratio amplitude increases in any bin"
        ),
        reference_free=False,
        paper_ref="Section IV-D",
    )
    #: Spectrum extraction is row-independent, but the batched fleet
    #: engine's running-sum scoring assumes unit-norm trace features;
    #: spectral windows are scored per session.
    supports_batched = False

    def __init__(
        self,
        boost_ratio: float = 1.6,
        n_bootstrap: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(
            n_components=None, n_bootstrap=n_bootstrap, seed=seed
        )
        if boost_ratio <= 1.0:
            raise AnalysisError(f"boost_ratio must exceed 1, got {boost_ratio}")
        self.boost_ratio = float(boost_ratio)
        #: Calibrated decision point: a single noisy window's max-bin
        #: boost routinely exceeds the record-level ``boost_ratio``,
        #: so the operating point is the larger of the configured
        #: ratio and the max boost the golden fit windows themselves
        #: reach — the Eq. (1) max-intra-golden idea in ratio space.
        self.boost_threshold: float | None = None

    def features(self, traces: np.ndarray) -> np.ndarray:
        """Per-window amplitude spectra (normalised frequency axis)."""
        return window_spectra(traces)

    def fit(self, golden_traces: np.ndarray) -> "SpectralPlugin":
        x = np.asarray(golden_traces, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise AnalysisError("need at least two golden traces to fit")
        feats = self.features(x)
        self._fit_stats(feats)
        self.boost_threshold = max(
            self.boost_ratio, float(self._boost_scores(feats).max())
        )
        return self

    def _boost_scores(self, spectra: np.ndarray) -> np.ndarray:
        """Max per-bin amplitude ratio of each window over the golden
        mean spectrum."""
        floor = np.maximum(self.fingerprint, 1e-30)
        return (spectra / floor[None, :]).max(axis=1)

    def score(self, traces: np.ndarray) -> np.ndarray:
        """Per-window anomaly score = max boost over the golden
        spectrum (1 ≈ golden, ``boost_ratio`` = paper's flag point)."""
        if self._fingerprint is None:
            raise AnalysisError("detector used before fit()")
        return self._boost_scores(self.features(traces))

    def decide(self, scores: np.ndarray) -> DetectorDecision:
        if self.boost_threshold is None:
            raise AnalysisError("detector used before fit()")
        s = np.asarray(scores, dtype=np.float64)
        exceed = float((s > self.boost_threshold).mean()) if s.size else 0.0
        return DetectorDecision(
            detected=exceed > 0.5,
            threshold=self.boost_threshold,
            exceed_fraction=exceed,
        )

    # -- state round trip ------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        del state["n_components"], state["pca"]
        state["boost_ratio"] = self.boost_ratio
        state["boost_threshold"] = self.boost_threshold
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SpectralPlugin":
        det = cls(
            boost_ratio=state["boost_ratio"],
            n_bootstrap=state["n_bootstrap"],
            seed=state["seed"],
        )
        det.boost_threshold = (
            float(state["boost_threshold"])
            if state["boost_threshold"] is not None
            else None
        )
        det.threshold = float(state["threshold"])
        det.separation_floor = (
            float(state["separation_floor"])
            if state["separation_floor"] is not None
            else None
        )
        det._fingerprint = np.asarray(state["fingerprint"], dtype=np.float64)
        det.golden_distances = np.asarray(
            state["golden_distances"], dtype=np.float64
        )
        return det
