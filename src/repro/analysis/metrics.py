"""Detection quality metrics.

The paper reports detection qualitatively; the reproduction adds
TPR/FPR at a threshold so the threshold ablation has a quantitative
target.  ROC curves and their AUC live in :mod:`repro.detectors.roc`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class DetectionMetrics:
    """Point metrics of a thresholded distance detector."""

    threshold: float
    true_positive_rate: float
    false_positive_rate: float
    accuracy: float


def score_detection(
    golden_distances: np.ndarray,
    trojan_distances: np.ndarray,
    threshold: float,
) -> DetectionMetrics:
    """Score a distance threshold: Trojan traces are the positive class."""
    g = np.asarray(golden_distances, dtype=np.float64)
    t = np.asarray(trojan_distances, dtype=np.float64)
    if g.size == 0 or t.size == 0:
        raise AnalysisError("both distance sets must be non-empty")
    tpr = float((t > threshold).mean())
    fpr = float((g > threshold).mean())
    accuracy = float(
        ((t > threshold).sum() + (g <= threshold).sum()) / (t.size + g.size)
    )
    return DetectionMetrics(
        threshold=float(threshold),
        true_positive_rate=tpr,
        false_positive_rate=fpr,
        accuracy=accuracy,
    )
