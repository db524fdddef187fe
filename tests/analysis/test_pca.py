"""Tests for the from-scratch PCA."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.pca import PCA
from repro.errors import AnalysisError


def _correlated_data(rng, n=200, d=10):
    latent = rng.normal(size=(n, 2))
    mix = rng.normal(size=(2, d))
    return latent @ mix + 0.01 * rng.normal(size=(n, d))


def test_components_are_orthonormal(rng):
    x = _correlated_data(rng)
    pca = PCA(4).fit(x)
    gram = pca.components_ @ pca.components_.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)


def test_explained_variance_sorted_and_ratio(rng):
    x = _correlated_data(rng)
    pca = PCA(5).fit(x)
    ev = pca.explained_variance_
    assert (np.diff(ev) <= 1e-12).all()
    assert 0 < pca.explained_variance_ratio_.sum() <= 1 + 1e-12
    # Two latent factors dominate.
    assert pca.explained_variance_ratio_[:2].sum() > 0.95


def test_transform_centers_data(rng):
    x = _correlated_data(rng)
    pca = PCA(2).fit(x)
    z = pca.transform(x)
    assert z.shape == (x.shape[0], 2)
    assert np.allclose(z.mean(axis=0), 0, atol=1e-9)


def test_use_before_fit_raises(rng):
    pca = PCA(2)
    with pytest.raises(AnalysisError):
        pca.transform(np.zeros((3, 4)))


def test_dimension_validation(rng):
    x = _correlated_data(rng, n=20, d=5)
    with pytest.raises(AnalysisError):
        PCA(0)
    with pytest.raises(AnalysisError):
        PCA(6).fit(x)
    pca = PCA(2).fit(x)
    with pytest.raises(AnalysisError):
        pca.transform(np.zeros((3, 7)))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4))
def test_projection_preserves_variance_ordering(k):
    rng = np.random.default_rng(k)
    x = _correlated_data(rng, n=100, d=8)
    pca = PCA(k).fit(x)
    z = pca.transform(x)
    variances = z.var(axis=0)
    assert (np.diff(variances) <= 1e-9).all()
