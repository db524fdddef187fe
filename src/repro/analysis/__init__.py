"""Side-channel data analysis — the trusted off-chip module of Fig. 1.

Implements the paper's analysis chain: PCA dimensionality reduction
(:mod:`~repro.analysis.pca`), the Euclidean-distance detector with the
Eq. (1) max-intra-golden threshold (:mod:`~repro.analysis.euclidean`)
and FFT spectral inspection for A2-style Trojans
(:mod:`~repro.analysis.spectral`), plus histogram utilities for the
Fig. 6 views, thresholded detection metrics
(:mod:`~repro.analysis.metrics`) and the TVLA leakage test
(:mod:`~repro.analysis.tvla`).
"""

from repro.analysis.pca import PCA
from repro.analysis.euclidean import (
    EuclideanDetector,
    euclidean_distances,
    max_intra_distance,
)
from repro.analysis.spectral import (
    Spectrum,
    amplitude_spectrum,
    band_energy,
    compare_spectra,
    find_peaks_above,
)
from repro.analysis.histogram import distance_histogram, histogram_overlap, peak_separation
from repro.analysis.metrics import DetectionMetrics, score_detection
from repro.analysis.tvla import TvlaResult, welch_t_test

__all__ = [
    "PCA",
    "EuclideanDetector",
    "euclidean_distances",
    "max_intra_distance",
    "Spectrum",
    "amplitude_spectrum",
    "band_energy",
    "compare_spectra",
    "find_peaks_above",
    "distance_histogram",
    "histogram_overlap",
    "peak_separation",
    "DetectionMetrics",
    "score_detection",
    "TvlaResult",
    "welch_t_test",
]
