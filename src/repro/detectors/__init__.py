"""Pluggable detector framework.

Importing this package registers the built-in plugins:

* ``euclidean`` — the paper's golden-fingerprint distance detector;
* ``spectral`` — the golden-spectrum boost check;
* ``spectral_median`` — reference-free population-median outlier
  scoring (arXiv 2601.20163);
* ``persistence`` — reference-free cross-scale score agreement
  (arXiv 2603.16058).

Consumers select detectors by name through the registry — directly
(``create_detector("spectral_median")``) or via the ``REPRO_DETECTOR``
configuration knob (``create_detector()``).  See ``docs/DETECTORS.md``
for the plugin API and the per-detector method summaries.
"""

from repro.detectors.base import (
    Detector,
    DetectorDecision,
    DetectorInfo,
    window_spectra,
)
from repro.detectors.registry import (
    REGISTRY,
    all_detector_infos,
    create_detector,
    detector_from_state,
    get_detector_class,
    register_detector,
)
from repro.detectors.roc import RocCurve, auc, roc_curve

# Importing the plugin modules is what populates the registry.
from repro.detectors.euclidean import EuclideanPlugin
from repro.detectors.spectral import SpectralPlugin
from repro.detectors.reference_free import (
    CrossScalePersistenceDetector,
    SpectralMedianDetector,
)

__all__ = [
    "Detector",
    "DetectorDecision",
    "DetectorInfo",
    "RocCurve",
    "REGISTRY",
    "all_detector_infos",
    "auc",
    "create_detector",
    "detector_from_state",
    "get_detector_class",
    "register_detector",
    "roc_curve",
    "window_spectra",
    "EuclideanPlugin",
    "SpectralPlugin",
    "SpectralMedianDetector",
    "CrossScalePersistenceDetector",
]
