"""Tests for the Eq. (1) Euclidean-distance detector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.euclidean import (
    EuclideanDetector,
    euclidean_distances,
    max_intra_distance,
    normalize_traces,
    pairwise_max_distance,
)
from repro.errors import AnalysisError


def _golden(rng, n=100, length=256):
    base = np.sin(np.linspace(0, 20, length))
    return base[None, :] + 0.05 * rng.normal(size=(n, length))


def _split_half_floors_loop(feats, orders):
    """Loop reference for the vectorised split-half floors."""
    half = orders.shape[1] // 2
    floors = []
    for order in orders:
        a = feats[order[:half]].mean(axis=0)
        b = feats[order[half : 2 * half]].mean(axis=0)
        floors.append(float(np.linalg.norm(a - b)))
    return np.array(floors)


def test_normalize_traces_unit_norm(rng):
    x = rng.normal(size=(5, 64)) + 3.0
    z = normalize_traces(x)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0)
    assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)


def test_normalize_rejects_constant_trace():
    with pytest.raises(AnalysisError):
        normalize_traces(np.ones((2, 16)))


def test_euclidean_distances_basic():
    data = np.array([[3.0, 4.0], [0.0, 0.0]])
    d = euclidean_distances(data, np.zeros(2))
    assert np.allclose(d, [5.0, 0.0])


def test_pairwise_max_distance_matches_bruteforce(rng):
    x = rng.normal(size=(40, 8))
    brute = max(
        np.linalg.norm(a - b) for a in x for b in x
    )
    assert pairwise_max_distance(x, chunk=7) == pytest.approx(brute)
    assert max_intra_distance is pairwise_max_distance


def test_pairwise_needs_two_vectors():
    with pytest.raises(AnalysisError):
        pairwise_max_distance(np.zeros((1, 4)))


def test_detector_golden_statistics(rng):
    golden = _golden(rng)
    det = EuclideanDetector().fit(golden)
    assert det.threshold > 0
    assert det.separation_floor > 0
    assert det.golden_distances.shape == (100,)
    # Golden traces against their own fingerprint: all below Eq. (1).
    assert det.golden_distances.max() <= det.threshold


def test_detector_flags_shifted_population(rng):
    golden = _golden(rng)
    det = EuclideanDetector().fit(golden)
    suspect = _golden(rng) + 0.3 * np.cos(np.linspace(0, 7, 256))[None, :]
    report = det.evaluate(suspect)
    assert report.separation > det.separation_floor
    assert report.detected


def test_detector_accepts_golden_lookalike(rng):
    golden = _golden(rng)
    det = EuclideanDetector().fit(golden)
    more_golden = _golden(np.random.default_rng(999))
    report = det.evaluate(more_golden)
    assert not report.detected


def test_detector_distance_bounded_by_two(rng):
    golden = _golden(rng)
    det = EuclideanDetector().fit(golden)
    adversarial = -_golden(rng)  # anti-correlated traces
    d = det.distances(adversarial)
    assert (d <= 2.0 + 1e-9).all()


def test_detector_with_pca_denoising(rng):
    golden = _golden(rng)
    det = EuclideanDetector(n_components=5).fit(golden)
    suspect = _golden(rng) + 0.3 * np.cos(np.linspace(0, 7, 256))[None, :]
    assert det.evaluate(suspect).separation > 0


def test_detector_use_before_fit(rng):
    det = EuclideanDetector()
    with pytest.raises(AnalysisError):
        det.distances(np.zeros((2, 8)))
    with pytest.raises(AnalysisError):
        det.evaluate(np.zeros((2, 8)))


def test_detector_needs_two_golden_traces():
    with pytest.raises(AnalysisError):
        EuclideanDetector().fit(np.zeros((1, 8)))


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_distances_invariant_to_trace_scale(scale):
    rng = np.random.default_rng(5)
    golden = _golden(rng)
    det = EuclideanDetector().fit(golden)
    suspect = _golden(rng)
    d1 = det.distances(suspect)
    d2 = det.distances(scale * suspect)
    assert np.allclose(d1, d2)


def test_separation_is_mean_shift(rng):
    golden = _golden(rng)
    det = EuclideanDetector().fit(golden)
    # Separation of the golden set itself is essentially zero.
    assert det.separation(golden) < 1e-9


# -- vectorised bootstrap ------------------------------------------------


def test_bootstrap_orders_match_sequential_permutations():
    """``permuted`` on a tiled index matrix reproduces the exact
    permutation stream the old per-draw loop consumed."""
    from repro.analysis.euclidean import _bootstrap_orders

    orders = _bootstrap_orders(np.random.default_rng(0), 100, 32)
    rng = np.random.default_rng(0)
    expected = np.stack([rng.permutation(100) for _ in range(32)])
    assert np.array_equal(orders, expected)


def test_split_half_floors_match_loop_reference(rng):
    from repro.analysis.euclidean import (
        _bootstrap_orders,
        _split_half_floors,
    )

    feats = normalize_traces(_golden(rng))
    orders = _bootstrap_orders(np.random.default_rng(7), feats.shape[0], 32)
    fast = _split_half_floors(feats, orders)
    slow = _split_half_floors_loop(feats, orders)
    # gemm vs per-row mean differ only in summation order: last-ulp.
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


def test_fit_threshold_bit_identical_to_loop_reference(rng):
    """Eq. (1)'s threshold never touches the bootstrap — exact match —
    and the vectorised floor agrees with the loop to float precision."""
    from repro.analysis.euclidean import _bootstrap_orders

    golden = _golden(rng)
    det = EuclideanDetector(seed=3).fit(golden)
    feats = normalize_traces(golden)
    assert det.threshold == pairwise_max_distance(feats)
    loop_orders = _bootstrap_orders(
        np.random.default_rng(3), feats.shape[0], det.n_bootstrap
    )
    loop_floor = det.FLOOR_FACTOR * float(
        _split_half_floors_loop(feats, loop_orders).max()
    )
    assert det.separation_floor == pytest.approx(loop_floor, abs=1e-12)


def test_state_dict_roundtrip_bit_identical(rng):
    golden = _golden(rng)
    for n_components in (None, 5):
        det = EuclideanDetector(n_components=n_components).fit(golden)
        clone = EuclideanDetector.from_state(det.state_dict())
        assert clone.threshold == det.threshold
        assert clone.separation_floor == det.separation_floor
        assert np.array_equal(clone._fingerprint, det._fingerprint)
        suspect = _golden(rng, n=20)
        assert np.array_equal(clone.distances(suspect), det.distances(suspect))


def test_state_dict_requires_fit():
    with pytest.raises(AnalysisError):
        EuclideanDetector().state_dict()


def test_fingerprint_property_is_public_and_read_only(rng):
    det = EuclideanDetector().fit(_golden(rng))
    fingerprint = det.fingerprint
    assert np.array_equal(fingerprint, det._fingerprint)
    assert not fingerprint.flags.writeable
    with pytest.raises(ValueError):
        fingerprint[0] = 0.0
    # The backing array is untouched by the read-only view.
    assert np.array_equal(det.fingerprint, det._fingerprint)


def test_fingerprint_property_requires_fit():
    with pytest.raises(AnalysisError):
        EuclideanDetector().fingerprint
