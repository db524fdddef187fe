"""Behavioural tests for the reference-free detectors.

Synthetic sinusoid-plus-noise populations exercise the scoring
pipeline cheaply; the chip-level test at the bottom is the acceptance
criterion — both detectors must separate A2 from golden with
AUC >= 0.95 at the paper's calibrated SNR after fitting on **zero**
golden windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import auc, create_detector
from repro.detectors.reference_free import (
    MIN_FIT_WINDOWS,
    CrossScalePersistenceDetector,
    SpectralMedianDetector,
)
from repro.errors import AnalysisError


def _stream(rng, n, length=256, tone=0.0):
    t = np.arange(length)
    base = np.sin(2 * np.pi * 0.125 * t)
    x = base[None, :] + 0.05 * rng.normal(size=(n, length))
    if tone:
        x = x + tone * np.sin(2 * np.pi * 0.25 * t)[None, :]
    return x


class TestValidation:
    def test_bad_constructor_parameters(self):
        with pytest.raises(AnalysisError, match="positive integers"):
            CrossScalePersistenceDetector(scales=())
        with pytest.raises(AnalysisError, match="positive integers"):
            CrossScalePersistenceDetector(scales=(0, 2))
        with pytest.raises(AnalysisError, match="smooth_len"):
            SpectralMedianDetector(smooth_len=0)
        with pytest.raises(AnalysisError, match="top_bins"):
            SpectralMedianDetector(top_bins=0)
        with pytest.raises(AnalysisError, match="z_cut"):
            SpectralMedianDetector(z_cut=0.0)
        with pytest.raises(AnalysisError, match="alarm_fraction"):
            SpectralMedianDetector(alarm_fraction=1.0)

    def test_fit_needs_a_minimum_population(self, rng):
        det = SpectralMedianDetector()
        with pytest.raises(AnalysisError, match=str(MIN_FIT_WINDOWS)):
            det.fit(_stream(rng, MIN_FIT_WINDOWS - 1))

    def test_windows_too_short_for_welch(self, rng):
        det = SpectralMedianDetector(welch_k=4)
        with pytest.raises(AnalysisError, match="too short"):
            det.fit(np.empty((0, 0))).score(
                rng.normal(size=(16, 16))
            )

    def test_fingerprint_requires_a_fitted_baseline(self, rng):
        det = SpectralMedianDetector()
        with pytest.raises(AnalysisError, match="before fit"):
            det.fingerprint
        det.fit(np.empty((0, 0)))
        with pytest.raises(AnalysisError, match="before fit"):
            det.fingerprint
        det.fit(_stream(rng, 32))
        fp = det.fingerprint
        with pytest.raises(ValueError):
            fp[0] = 1.0

    def test_streaming_threshold_requires_a_fitted_baseline(self, rng):
        det = SpectralMedianDetector().fit(np.empty((0, 0)))
        with pytest.raises(AnalysisError, match="fitted population"):
            det.streaming_threshold(16)
        det.fit(_stream(rng, 32))
        with pytest.raises(AnalysisError, match="window"):
            det.streaming_threshold(0)

    def test_window_length_must_match_the_fitted_population(self, rng):
        det = SpectralMedianDetector().fit(_stream(rng, 32, length=256))
        with pytest.raises(AnalysisError, match="window length"):
            det.score(_stream(rng, 8, length=512))

    def test_decide_on_empty_scores(self):
        decision = SpectralMedianDetector().decide(np.array([]))
        assert not decision.detected
        assert decision.threshold == 0.0
        assert decision.exceed_fraction == 0.0


class TestSyntheticSeparation:
    @pytest.mark.parametrize(
        "name", ["spectral_median", "persistence"]
    )
    def test_transductive_pooled_separation(self, rng, name):
        det = create_detector(name).fit(np.empty((0, 0)))
        golden = _stream(rng, 128)
        bad = _stream(rng, 64, tone=0.05)
        scores = det.score(np.vstack([golden, bad]))
        assert auc(scores[:128], scores[128:]) >= 0.95
        assert det.decide(scores).detected
        clean = det.score(_stream(rng, 128))
        assert not det.decide(clean).detected

    @pytest.mark.parametrize(
        "name", ["spectral_median", "persistence"]
    )
    def test_fitted_baseline_mode(self, rng, name):
        # 256 fit windows: the per-bin baseline median's sampling
        # error must be small against the raw-scale MAD scales, or
        # bias bins outrank the tone in the exceedance-rate selection.
        det = create_detector(name).fit(_stream(rng, 256))
        pooled = np.vstack([
            _stream(rng, 128), _stream(rng, 64, tone=0.1)
        ])
        scores = det.score(pooled)
        assert auc(scores[:128], scores[128:]) >= 0.95
        assert det.decide(scores).detected

    def test_persistence_is_the_min_over_single_scale_scores(self, rng):
        x = np.vstack([_stream(rng, 96), _stream(rng, 32, tone=0.05)])
        multi = CrossScalePersistenceDetector(scales=(1, 2, 4))
        multi.fit(np.empty((0, 0)))
        per_scale = [
            SpectralMedianDetector(welch_k=k).fit(np.empty((0, 0))).score(x)
            for k in (1, 2, 4)
        ]
        np.testing.assert_array_equal(
            multi.score(x), np.min(np.stack(per_scale), axis=0)
        )

    def test_streaming_threshold_shrinks_with_window(self, rng):
        det = SpectralMedianDetector().fit(_stream(rng, 128))
        assert det.streaming_threshold(64) < det.streaming_threshold(4)


class TestChipAuc:
    """Acceptance: zero-golden-fit A2 separation at the paper's SNR."""

    @pytest.fixture(scope="class")
    def pooled_traces(self, chip, sim_scenario):
        from repro.experiments.campaign import get_or_generate_traces

        common = dict(receivers=("sensor",), decimate=1)
        golden = get_or_generate_traces(
            chip, sim_scenario, "ed", n_traces=192, trojan_enables=(),
            rng_role="tournament/eval", **common,
        )["sensor"]
        a2 = get_or_generate_traces(
            chip, sim_scenario, "ed", n_traces=96,
            trojan_enables=("a2",), rng_role="tournament/suspect",
            **common,
        )["sensor"]
        return golden, a2

    @pytest.mark.parametrize(
        "name", ["spectral_median", "persistence"]
    )
    def test_zero_golden_fit_separates_a2(self, pooled_traces, name):
        golden, a2 = pooled_traces
        detector = create_detector(name).fit(np.empty((0, 0)))
        scores = detector.score(np.vstack([golden, a2]))
        assert auc(scores[: golden.shape[0]],
                   scores[golden.shape[0]:]) >= 0.95
        # The null stream must stay quiet at the same operating point.
        assert not detector.decide(detector.score(golden)).detected
