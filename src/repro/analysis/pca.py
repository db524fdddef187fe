"""Principal Component Analysis, from scratch (SVD-based).

The paper: "Techniques such as Principal Component Analysis (PCA) can
help reduce the dimensionality of original data by replacing several
correlated variables with a new set of independent variables."  PCA is
fitted on the *golden* traces only; suspect traces are projected with
the golden model so Trojan energy that falls outside the golden
subspace shows up as distance, not as a new component.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


class PCA:
    """Minimal PCA with the scikit-learn-ish fit/transform contract."""

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise AnalysisError(
                f"n_components must be >= 1, got {n_components}"
            )
        self.n_components = n_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "PCA":
        """Fit on ``(n_samples, n_features)`` data."""
        x = np.asarray(data, dtype=np.float64)
        if x.ndim != 2:
            raise AnalysisError(f"data must be 2-D, got shape {x.shape}")
        n, d = x.shape
        k = self.n_components
        if k > min(n, d):
            raise AnalysisError(
                f"n_components {k} exceeds min(n_samples, n_features) = "
                f"{min(n, d)}"
            )
        self.mean_ = x.mean(axis=0)
        centered = x - self.mean_
        # Economy SVD; rows of vt are the principal directions.
        _u, s, vt = np.linalg.svd(centered, full_matrices=False)
        self.components_ = vt[:k]
        var = (s**2) / max(1, n - 1)
        self.explained_variance_ = var[:k]
        total = float(var.sum())
        self.explained_variance_ratio_ = (
            var[:k] / total if total > 0 else np.zeros(k)
        )
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Project data onto the fitted components."""
        if self.components_ is None or self.mean_ is None:
            raise AnalysisError("PCA used before fit()")
        x = np.asarray(data, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.mean_.shape[0]:
            raise AnalysisError(
                f"data shape {x.shape} does not match fitted dimension "
                f"{self.mean_.shape[0]}"
            )
        return (x - self.mean_) @ self.components_.T
