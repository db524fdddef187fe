"""Exact threshold-sweep ROC and AUC for detector scores.

The sweep places one threshold at every distinct score, so the curve
— and the trapezoidal AUC over it — is exact for the given samples.
The decision rule is "positive if score > threshold", matching every
detector's :meth:`decide`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class RocCurve:
    """Exact ROC sweep: one point per distinct score, plus (1, 1)."""

    #: False-positive rate per threshold, ascending.
    fpr: np.ndarray
    #: True-positive rate per threshold, ascending.
    tpr: np.ndarray
    #: Decision thresholds ("positive if score > t"); the final (1, 1)
    #: point carries ``-inf``.  One entry per curve point.
    thresholds: np.ndarray
    auc: float

    def points(self, cap: int = 129) -> list[dict[str, float]]:
        """JSON-ready ``{"fpr", "tpr"}`` pairs, decimated to ≤ *cap*.

        Endpoints are always kept, so the decimated polyline still
        spans (0, 0) → (1, 1); thresholds are dropped because the
        final ``-inf`` is not JSON-encodable.
        """
        n = self.fpr.size
        if n <= cap:
            idx = np.arange(n)
        else:
            idx = np.unique(np.linspace(0, n - 1, cap).round().astype(int))
        return [
            {"fpr": float(self.fpr[i]), "tpr": float(self.tpr[i])}
            for i in idx
        ]


def roc_curve(neg_scores: np.ndarray, pos_scores: np.ndarray) -> RocCurve:
    """Exact ROC of *pos_scores* (Trojan) against *neg_scores* (golden).

    Thresholds are the distinct scores in descending order; at each,
    rates count scores **strictly above** it, so ties between classes
    move both rates together (the diagonal segment a tie deserves).
    The sweep starts at the maximum score — where nothing is positive,
    pinning (0, 0) — and an explicit (1, 1) point closes the curve.
    """
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    if neg.size == 0 or pos.size == 0:
        raise AnalysisError("ROC needs at least one score in each class")
    if not (np.isfinite(neg).all() and np.isfinite(pos).all()):
        raise AnalysisError("ROC scores must be finite")

    thresholds = np.unique(np.concatenate([neg, pos]))[::-1]
    neg_sorted = np.sort(neg)
    pos_sorted = np.sort(pos)
    # Count of scores strictly greater than each threshold.
    fp = neg.size - np.searchsorted(neg_sorted, thresholds, side="right")
    tp = pos.size - np.searchsorted(pos_sorted, thresholds, side="right")
    fpr = np.concatenate([fp / neg.size, [1.0]])
    tpr = np.concatenate([tp / pos.size, [1.0]])
    thresholds = np.concatenate([thresholds, [-np.inf]])
    return RocCurve(
        fpr=fpr,
        tpr=tpr,
        thresholds=thresholds,
        auc=float(np.trapezoid(tpr, fpr)),
    )


def auc(neg_scores: np.ndarray, pos_scores: np.ndarray) -> float:
    """Exact area under the ROC of the two score populations."""
    return roc_curve(neg_scores, pos_scores).auc
