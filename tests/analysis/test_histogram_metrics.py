"""Tests for histogram utilities and detection metrics."""

import numpy as np
import pytest

from repro.analysis.histogram import (
    distance_histogram,
    histogram_overlap,
    peak_separation,
)
from repro.analysis.metrics import score_detection
from repro.errors import AnalysisError


def test_histogram_bins_shared_axis(rng):
    g = rng.normal(0.5, 0.05, 1000).clip(0)
    t = rng.normal(0.9, 0.05, 1000).clip(0)
    hist = distance_histogram(g, t, bins=50)
    assert hist.golden_counts.sum() == 1000
    assert hist.trojan_counts.sum() == 1000
    assert hist.bin_edges[0] == 0.0
    assert hist.golden_peak() == pytest.approx(0.5, abs=0.05)
    assert hist.trojan_peak() == pytest.approx(0.9, abs=0.05)


def test_overlap_identical_distributions(rng):
    g = rng.normal(0.5, 0.05, 5000).clip(0)
    hist = distance_histogram(g, g.copy(), bins=40)
    assert histogram_overlap(hist) == pytest.approx(1.0)


def test_overlap_disjoint_distributions(rng):
    g = rng.normal(0.2, 0.01, 2000).clip(0)
    t = rng.normal(1.0, 0.01, 2000).clip(0)
    hist = distance_histogram(g, t)
    assert histogram_overlap(hist) < 0.01


def test_peak_separation_in_sigma_units(rng):
    g = rng.normal(0.5, 0.1, 20000).clip(0)
    t = rng.normal(0.8, 0.1, 20000).clip(0)
    hist = distance_histogram(g, t, bins=60)
    assert peak_separation(hist, g) == pytest.approx(3.0, abs=0.8)


def test_histogram_validation():
    with pytest.raises(AnalysisError):
        distance_histogram(np.array([]), np.array([1.0]))
    hist = distance_histogram(np.array([0.5, 0.6]), np.array([0.5, 0.7]))
    with pytest.raises(AnalysisError):
        peak_separation(hist, np.array([0.5, 0.5]))  # zero spread


def test_histogram_render_ascii(rng):
    g = rng.normal(0.4, 0.05, 500).clip(0)
    t = rng.normal(0.8, 0.05, 500).clip(0)
    art = distance_histogram(g, t).render(width=40, height=6)
    assert "g" in art and "T" in art
    assert len(art.splitlines()) == 8


def test_score_detection_perfect_split():
    g = np.linspace(0.0, 0.4, 100)
    t = np.linspace(0.6, 1.0, 100)
    m = score_detection(g, t, threshold=0.5)
    assert m.true_positive_rate == 1.0
    assert m.false_positive_rate == 0.0
    assert m.accuracy == 1.0


def test_score_detection_threshold_tradeoff(rng):
    g = rng.normal(0.5, 0.1, 2000)
    t = rng.normal(0.7, 0.1, 2000)
    loose = score_detection(g, t, threshold=0.4)
    tight = score_detection(g, t, threshold=0.9)
    assert loose.true_positive_rate > tight.true_positive_rate
    assert loose.false_positive_rate > tight.false_positive_rate


def test_metrics_validation():
    with pytest.raises(AnalysisError):
        score_detection(np.array([]), np.array([1.0]), 0.5)
    with pytest.raises(AnalysisError):
        score_detection(np.array([0.5]), np.array([]), 0.5)
