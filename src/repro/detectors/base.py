"""Detector plugin protocol and shared feature helpers.

Every registered detector follows one life cycle:

``fit(traces)``
    Learn whatever reference the method needs.  Golden-based detectors
    require Trojan-free traces here; reference-free detectors accept an
    *unlabeled* population for streaming calibration — or an empty
    array for fully transductive use, where :meth:`score` calibrates
    itself from the scored population alone.
``score(traces) -> per-window anomaly scores``
    One float per trace window; larger means more anomalous.
``decide(scores) -> DetectorDecision``
    Turn a population of scores into a verdict at the detector's
    native operating point.
``state_dict() / from_state(state)``
    JSON-primitive round trip of the fitted state, bit-identical on
    restore (scores on any trace set equal before/after).

Detectors that additionally expose ``features`` / ``fingerprint`` /
``streaming_threshold`` plug into the streaming
:class:`~repro.framework.monitor.RuntimeMonitor` and the fleet
sessions; ``supports_batched`` gates the dense
:class:`~repro.framework.batched.BatchedFleetMonitor` engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.analysis.spectral import amplitude_spectrum
from repro.errors import AnalysisError


@dataclass(frozen=True)
class DetectorInfo:
    """Registry card for one detector plugin."""

    name: str
    summary: str
    #: True when the method never needs Trojan-free traces.
    reference_free: bool
    paper_ref: str = ""

    @property
    def basis(self) -> str:
        return "reference-free" if self.reference_free else "golden-based"


@dataclass(frozen=True)
class DetectorDecision:
    """Population verdict at a detector's native operating point."""

    detected: bool
    threshold: float
    #: Fraction of scored windows above the threshold.
    exceed_fraction: float


@runtime_checkable
class Detector(Protocol):
    """Structural type every registered detector satisfies."""

    info: DetectorInfo
    supports_batched: bool

    def fit(self, traces: np.ndarray) -> "Detector": ...

    def score(self, traces: np.ndarray) -> np.ndarray: ...

    def decide(self, scores: np.ndarray) -> DetectorDecision: ...

    def state_dict(self) -> dict: ...

    @classmethod
    def from_state(cls, state: dict) -> "Detector": ...


def window_spectra(traces: np.ndarray) -> np.ndarray:
    """Per-window Hann amplitude spectra, one row per trace window.

    Normalised frequency axis (``fs=1``): callers compare windows to
    each other, never to absolute hertz, so the grid only needs to be
    consistent across windows of equal length.
    """
    x = np.asarray(traces, dtype=np.float64)
    if x.ndim != 2:
        raise AnalysisError(f"traces must be (n, samples), got {x.shape}")
    return amplitude_spectrum(x, fs=1.0, average=False).amplitude
