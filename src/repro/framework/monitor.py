"""Streaming runtime monitor.

"The monitor keeps reading the EM sensor output" — this class is the
window-by-window alarm logic that turns the one-shot evaluator into a
*runtime* framework.  Trace windows arrive one at a time; the monitor
keeps a sliding record of their distances to the golden fingerprint
and raises an :class:`AlarmEvent` when the recent separation leaves the
golden envelope.  Hysteresis (consecutive-window confirmation) keeps a
single noisy window from tripping the alarm.

Each observation is O(1) in the sliding-window length: a running
feature sum is maintained alongside the deque (evicted features are
subtracted, new ones added), so the windowed mean never re-stacks the
whole window.  The sum is recomputed exactly from the deque every
:data:`RuntimeMonitor.REFRESH_EVERY` observations to keep float64
drift bounded on unbounded streams; the refresh schedule is a pure
function of the observation count, so the dense fleet engine
(:class:`~repro.framework.batched.BatchedFleetMonitor`) reproduces it
bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.framework.evaluator import RuntimeTrustEvaluator


@dataclass(frozen=True)
class AlarmEvent:
    """One raised alarm."""

    window_index: int
    separation: float
    threshold: float
    message: str


def row_separations(
    means: np.ndarray,
    fingerprint: np.ndarray,
    work: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Euclidean distance of mean feature vector(s) to the fingerprint.

    Accepts a single ``(features,)`` vector or a ``(rows, features)``
    matrix and reduces over the last axis.  The reduction is written as
    an explicit last-axis ufunc reduce — *not* the 1-D BLAS dot that
    ``np.linalg.norm`` takes on vectors — because the ufunc form is
    row-independent: the distance of one chip's mean is bitwise the
    same whether it is computed alone or as one row of a whole fleet's
    matrix.  Both the sequential :class:`RuntimeMonitor` and the
    batched :class:`~repro.framework.batched.BatchedFleetMonitor` go
    through this helper, which is what makes their alarm streams
    bit-identical.

    *work* (shaped like *means*) and *out* (one slot per row) are
    optional scratch buffers for hot loops that call this every window;
    the float64 operation sequence is identical either way.
    """
    if work is None:
        sq = means - fingerprint
        np.multiply(sq, sq, out=sq)
    else:
        np.subtract(means, fingerprint, out=work)
        np.multiply(work, work, out=work)
        sq = work
    if out is None:
        return np.sqrt(np.add.reduce(sq, axis=-1))
    return np.sqrt(np.add.reduce(sq, axis=-1), out=out)


class RuntimeMonitor:
    """Sliding-window alarm logic on top of a trained evaluator."""

    #: Observations between exact recomputations of the running
    #: feature sum (drift control; any value reproduces the same
    #: alarms on the same stream to float64 round-off).
    REFRESH_EVERY = 4096

    def __init__(
        self,
        evaluator: RuntimeTrustEvaluator,
        window: int = 64,
        confirm: int = 3,
        threshold: float | None = None,
    ) -> None:
        """
        Parameters
        ----------
        evaluator:
            Trained :class:`RuntimeTrustEvaluator`.
        window:
            Number of recent trace windows in the sliding estimate.
        confirm:
            Consecutive out-of-envelope estimates required to alarm.
        threshold:
            Explicit separation threshold; ``None`` derives the
            analytic three-sigma H0 envelope below.  The fleet layer
            passes the detector's bootstrap floor rescaled to *window*
            (:func:`repro.fleet.session.floor_scaled_threshold`).
        """
        if window < 2:
            raise AnalysisError(f"window must be >= 2, got {window}")
        if confirm < 1:
            raise AnalysisError(f"confirm must be >= 1, got {confirm}")
        self.evaluator = evaluator
        self.window = window
        self.confirm = confirm
        self._features: deque[np.ndarray] = deque(maxlen=window)
        self._feature_sum: np.ndarray | None = None
        self._streak = 0
        self._count = 0
        self.alarms: list[AlarmEvent] = []
        # Under H0 a W-window mean sits ~d_rms/sqrt(W) from the
        # fingerprint (d_rms = golden per-trace distance RMS); the
        # fingerprint itself carries ~d_rms/sqrt(n_golden) of sampling
        # error.  Three sigmas of the combined fluctuation is the alarm
        # threshold.
        detector = evaluator.detector
        golden_distances = getattr(detector, "golden_distances", None)
        if golden_distances is None and not hasattr(
            detector, "streaming_threshold"
        ):
            raise AnalysisError("evaluator's detector is not fitted")
        if threshold is None:
            if golden_distances is not None:
                d_rms = float(np.sqrt(np.mean(golden_distances**2)))
                n_golden = golden_distances.shape[0]
                threshold = float(
                    3.0 * d_rms * np.sqrt(1.0 / window + 1.0 / n_golden)
                )
            else:
                # Reference-free detectors carry their own population-
                # calibrated envelope for the W-window sliding mean.
                threshold = float(detector.streaming_threshold(window))
        elif threshold <= 0:
            raise AnalysisError(f"threshold must be > 0, got {threshold}")
        self.threshold = float(threshold)

    def current_separation(self) -> float:
        """Separation of the sliding window's mean feature vector."""
        if not self._features or self._feature_sum is None:
            raise AnalysisError("no windows observed yet")
        mean_feat = self._feature_sum / len(self._features)
        fingerprint = self.evaluator.detector.fingerprint
        return float(row_separations(mean_feat, fingerprint))

    def observe(self, trace: np.ndarray) -> AlarmEvent | None:
        """Feed one trace window; returns an alarm if one fires now."""
        detector = self.evaluator.detector
        feat = detector.features(np.atleast_2d(trace))[0]
        return self._observe_feature(feat)

    def observe_features(self, feats: np.ndarray) -> list[AlarmEvent]:
        """Feed pre-extracted feature rows; returns every alarm raised.

        The feature-extraction stage (:meth:`EuclideanDetector.
        features`) is the caller's, which lets batch replay pay it once
        per batch and lets instrumented callers time the two stages
        separately (see :mod:`repro.fleet`).

        When the caller already holds float64 rows (the fleet hot path
        does — :meth:`EuclideanDetector.features` returns them) the
        input is used as-is: the deque keeps row views into the
        caller's array, no conversion copy is made.
        """
        if not (
            isinstance(feats, np.ndarray) and feats.dtype == np.float64
        ):
            feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2:
            feats = np.atleast_2d(feats)
        events = []
        for feat in feats:
            event = self._observe_feature(feat)
            if event is not None:
                events.append(event)
        return events

    def observe_stream(self, traces: np.ndarray) -> list[AlarmEvent]:
        """Feed many windows; returns every alarm raised.

        Features are extracted once on the full batch, so streaming
        replay does not pay the per-trace extraction overhead.
        """
        feats = self.evaluator.detector.features(np.atleast_2d(traces))
        return self.observe_features(feats)

    def _observe_feature(self, feat: np.ndarray) -> AlarmEvent | None:
        if self._feature_sum is None:
            self._feature_sum = np.zeros_like(feat, dtype=np.float64)
        if len(self._features) == self.window:
            # The deque is about to evict its oldest entry.
            self._feature_sum = self._feature_sum - self._features[0]
        self._features.append(feat)
        self._feature_sum = self._feature_sum + feat
        self._count += 1
        if self._count % self.REFRESH_EVERY == 0:
            self._feature_sum = np.stack(self._features).sum(axis=0)
        if len(self._features) < self.window:
            return None
        sep = self.current_separation()
        threshold = self.threshold
        if sep > threshold:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak == self.confirm:
            event = AlarmEvent(
                window_index=self._count,
                separation=sep,
                threshold=threshold,
                message=(
                    f"EM fingerprint left the golden envelope "
                    f"({sep:.3f} > {threshold:.3f}) for {self.confirm} "
                    "consecutive windows"
                ),
            )
            self.alarms.append(event)
            return event
        return None
