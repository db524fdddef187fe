"""Tests for the detector registry, the exact ROC helper, and the
JSON state round trip every plugin must survive bit-identically."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReproConfig, use_config
from repro.detectors import (
    Detector,
    all_detector_infos,
    auc,
    create_detector,
    detector_from_state,
    get_detector_class,
    roc_curve,
)
from repro.detectors.base import DetectorInfo
from repro.detectors.registry import REGISTRY, register_detector
from repro.errors import AnalysisError

EXPECTED_DETECTORS = (
    "euclidean", "persistence", "spectral", "spectral_median",
)


class TestRegistry:
    def test_all_four_detectors_registered(self):
        assert tuple(sorted(REGISTRY)) == EXPECTED_DETECTORS
        infos = all_detector_infos()
        assert tuple(i.name for i in infos) == EXPECTED_DETECTORS
        for info in infos:
            assert info.summary
            assert info.basis in ("golden-based", "reference-free")
        by_name = {i.name: i for i in infos}
        assert not by_name["euclidean"].reference_free
        assert not by_name["spectral"].reference_free
        assert by_name["spectral_median"].reference_free
        assert by_name["persistence"].reference_free

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(AnalysisError, match="euclidean"):
            get_detector_class("nope")

    def test_duplicate_name_rejected(self):
        before = tuple(sorted(REGISTRY))
        with pytest.raises(AnalysisError, match="duplicate"):
            @register_detector
            class Clash:
                info = DetectorInfo(
                    name="euclidean", summary="x", reference_free=False
                )
        assert tuple(sorted(REGISTRY)) == before

    def test_registration_requires_info(self):
        with pytest.raises(AnalysisError, match="DetectorInfo"):
            register_detector(type("NoInfo", (), {}))

    def test_create_by_name_forwards_kwargs(self):
        det = create_detector("spectral_median", welch_k=2)
        assert det.welch_k == 2
        assert det.info.name == "spectral_median"

    def test_create_default_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETECTOR", "persistence")
        assert create_detector().info.name == "persistence"
        monkeypatch.delenv("REPRO_DETECTOR")
        assert create_detector().info.name == "euclidean"

    def test_create_default_honours_pinned_config(self):
        with use_config(ReproConfig(detector="spectral")):
            assert create_detector().info.name == "spectral"

    def test_every_plugin_satisfies_the_protocol(self):
        for name in sorted(REGISTRY):
            det = create_detector(name)
            assert isinstance(det, Detector), name
            assert isinstance(det.supports_batched, bool), name

    def test_only_euclidean_supports_batched_scoring(self):
        supported = {
            name: REGISTRY[name].supports_batched
            for name in sorted(REGISTRY)
        }
        assert supported == {
            "euclidean": True,
            "persistence": False,
            "spectral": False,
            "spectral_median": False,
        }


class TestRoc:
    def test_hand_computed_overlapping_classes(self):
        # Pairwise: 6 of 9 pairs strictly ordered, 2 tied -> 7/9.
        curve = roc_curve([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert curve.auc == pytest.approx(7.0 / 9.0)
        np.testing.assert_allclose(
            curve.fpr, [0.0, 0.0, 1 / 3, 2 / 3, 1.0]
        )
        np.testing.assert_allclose(
            curve.tpr, [0.0, 1 / 3, 2 / 3, 1.0, 1.0]
        )
        # Thresholds sweep the distinct scores descending; the closing
        # (1, 1) point carries -inf.
        np.testing.assert_array_equal(
            curve.thresholds, [4.0, 3.0, 2.0, 1.0, -np.inf]
        )

    def test_perfect_and_inverted_separation(self):
        assert auc([0.0, 1.0], [2.0, 3.0]) == 1.0
        assert auc([2.0, 3.0], [0.0, 1.0]) == 0.0

    def test_all_tied_scores_is_chance(self):
        curve = roc_curve([5.0, 5.0, 5.0], [5.0, 5.0])
        assert curve.auc == pytest.approx(0.5)
        # One diagonal segment: (0,0) then the tie moves both rates.
        np.testing.assert_allclose(curve.fpr, [0.0, 1.0])
        np.testing.assert_allclose(curve.tpr, [0.0, 1.0])

    def test_empty_class_rejected(self):
        with pytest.raises(AnalysisError, match="each class"):
            roc_curve([], [1.0])
        with pytest.raises(AnalysisError, match="each class"):
            roc_curve([1.0], [])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(AnalysisError, match="finite"):
            roc_curve([np.nan], [1.0])
        with pytest.raises(AnalysisError, match="finite"):
            roc_curve([0.0], [np.inf])

    def test_matches_pairwise_probability(self, rng):
        neg = rng.normal(size=200)
        pos = rng.normal(loc=0.7, size=150)
        gt = pos[:, None] > neg[None, :]
        eq = pos[:, None] == neg[None, :]
        pairwise = float(gt.mean() + 0.5 * eq.mean())
        assert auc(neg, pos) == pytest.approx(pairwise)

    @settings(max_examples=200, deadline=None)
    @given(
        neg=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
        pos=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    )
    def test_auc_is_pairwise_probability_with_ties(self, neg, pos):
        """On integer scores from a narrow range — so most pairs tie —
        the trapezoid AUC is ``P(pos > neg) + P(pos == neg) / 2``."""
        n, p = np.array(neg, dtype=float), np.array(pos, dtype=float)
        gt = (p[:, None] > n[None, :]).mean()
        eq = (p[:, None] == n[None, :]).mean()
        curve = roc_curve(n, p)
        assert curve.auc == pytest.approx(gt + 0.5 * eq, abs=1e-12)
        assert 0.0 <= curve.auc <= 1.0

    def test_points_decimation_keeps_endpoints(self, rng):
        curve = roc_curve(
            rng.normal(size=500), rng.normal(loc=0.5, size=500)
        )
        pts = curve.points(cap=33)
        assert len(pts) <= 33
        assert pts[0] == {"fpr": 0.0, "tpr": 0.0}
        assert pts[-1] == {"fpr": 1.0, "tpr": 1.0}
        fprs = [p["fpr"] for p in pts]
        assert fprs == sorted(fprs)


def _population(rng, n, length=256, tone=0.0):
    """Sinusoid-plus-noise windows, optionally with an extra tone."""
    t = np.arange(length)
    base = np.sin(2 * np.pi * 0.125 * t)
    x = base[None, :] + 0.05 * rng.normal(size=(n, length))
    if tone:
        x = x + tone * np.sin(2 * np.pi * 0.25 * t)[None, :]
    return x


class TestStateRoundTrip:
    def test_every_detector_round_trips_bit_identically(self, rng):
        golden = _population(rng, 128)
        probe = np.vstack([
            _population(rng, 24), _population(rng, 24, tone=0.05)
        ])
        for name in sorted(REGISTRY):
            det = create_detector(name).fit(golden)
            state = json.loads(json.dumps(det.state_dict()))
            clone = detector_from_state(name, state)
            np.testing.assert_array_equal(
                det.score(probe), clone.score(probe),
                err_msg=f"{name} scores drifted through JSON",
            )
            assert det.decide(det.score(probe)) == clone.decide(
                clone.score(probe)
            ), name
            assert clone.state_dict() == det.state_dict(), name

    def test_transductive_state_round_trips(self, rng):
        probe = np.vstack([
            _population(rng, 64), _population(rng, 32, tone=0.05)
        ])
        for name in ("spectral_median", "persistence"):
            det = create_detector(name).fit(np.empty((0, 0)))
            state = json.loads(json.dumps(det.state_dict()))
            assert state["baseline"] is None
            clone = detector_from_state(name, state)
            np.testing.assert_array_equal(
                det.score(probe), clone.score(probe)
            )


def _finite_or_rejected(score, traces):
    """Score *traces*; a degenerate input may raise, never yield NaN."""
    try:
        scores = score(traces)
    except AnalysisError:
        return
    assert np.isfinite(scores).all(), scores


class TestDegenerateInput:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_constant_fit_never_scores_nan(self, name):
        """A constant fit population is rejected, so it never scores."""
        for shape in ((64, 256), (8, 100), (8, 257)):
            with pytest.raises(AnalysisError):
                create_detector(name).fit(np.ones(shape))

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_single_window_never_scores_nan(self, rng, name):
        det = create_detector(name).fit(_population(rng, 64))
        _finite_or_rejected(det.score, _population(rng, 1))
        _finite_or_rejected(det.score, np.ones((1, 256)))
