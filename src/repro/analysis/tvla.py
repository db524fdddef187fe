"""Test Vector Leakage Assessment (TVLA / Welch's t-test).

The standard side-channel leakage assessment (Goodwill et al.):
acquire two trace populations — fixed plaintext vs random plaintexts —
and compute the per-sample Welch t-statistic; |t| > 4.5 anywhere is
evidence of first-order leakage.  Used here both as a leakage-realism
check of the EM model and as an alternative detector: an activated
Trojan makes golden-vs-suspect populations fail the t-test massively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

#: The conventional TVLA pass/fail threshold on |t|.
TVLA_THRESHOLD = 4.5


@dataclass
class TvlaResult:
    """Per-sample Welch t-statistics of two trace populations."""

    t_values: np.ndarray
    threshold: float = TVLA_THRESHOLD

    @property
    def max_abs_t(self) -> float:
        return float(np.abs(self.t_values).max())

    @property
    def leaky_samples(self) -> int:
        """Number of samples beyond the threshold."""
        return int((np.abs(self.t_values) > self.threshold).sum())

    @property
    def leaks(self) -> bool:
        return self.leaky_samples > 0

    def format(self) -> str:
        verdict = "LEAKS" if self.leaks else "passes"
        return (
            f"TVLA: max |t| = {self.max_abs_t:.1f}, "
            f"{self.leaky_samples}/{self.t_values.size} samples beyond "
            f"|t| > {self.threshold} -> {verdict}"
        )


def welch_t_test(
    population_a: np.ndarray,
    population_b: np.ndarray,
    threshold: float = TVLA_THRESHOLD,
) -> TvlaResult:
    """Per-sample Welch t-statistic between two trace matrices.

    Parameters
    ----------
    population_a, population_b:
        ``(n, samples)`` matrices with equal sample counts (trace
        counts may differ).
    threshold:
        |t| level that flags leakage.
    """
    a = np.asarray(population_a, dtype=np.float64)
    b = np.asarray(population_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise AnalysisError(
            f"populations must be (n, samples) with equal sample count; "
            f"got {a.shape} and {b.shape}"
        )
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise AnalysisError("each population needs at least two traces")
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    var_a = a.var(axis=0, ddof=1) / a.shape[0]
    var_b = b.var(axis=0, ddof=1) / b.shape[0]
    denom = np.sqrt(var_a + var_b)
    denom[denom == 0] = np.inf
    return TvlaResult(t_values=(mean_a - mean_b) / denom, threshold=threshold)
