"""Whole-matrix one-shot reference for the fleet's streaming one-shot.

The fleet campaign forms its one-shot verdict chunk by chunk with
:class:`~repro.fleet.campaign.StreamingOneShot`.  :func:`oneshot_report`
evaluates the same statistics over a whole delivered trace matrix at
once, so the tests can hold the accumulator against it.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.euclidean import DistanceReport, euclidean_distances


def oneshot_report(detector, traces: np.ndarray) -> DistanceReport:
    """One-shot verdict over a delivered trace set, any registry detector.

    Euclidean-family detectors keep their historical
    :meth:`EuclideanDetector.evaluate` report bit for bit.  Other
    plugins (the reference-free spectral detectors) are mapped onto the
    same report shape through their streaming surface: per-window
    feature distance to the fitted fingerprint against the one-window
    ``streaming_threshold`` envelope, and the population's mean-feature
    separation against the full-set envelope.
    """
    evaluate = getattr(detector, "evaluate", None)
    if evaluate is not None:
        return evaluate(traces)
    feats = detector.features(traces)
    d = euclidean_distances(feats, detector.fingerprint)
    threshold = float(detector.streaming_threshold(1))
    return DistanceReport(
        distances=d,
        threshold=threshold,
        mean_distance=float(d.mean()),
        exceed_fraction=float((d > threshold).mean()),
        separation=float(
            np.linalg.norm(feats.mean(axis=0) - detector.fingerprint)
        ),
        separation_floor=float(detector.streaming_threshold(len(feats))),
    )
