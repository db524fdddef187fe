"""Reference-free detectors: no golden chip required.

Both plugins score a window stream against the *population it arrives
in* instead of a golden fingerprint, so they work transductively (fit
on zero windows, score a pooled stream) or against any unlabeled
field population handed to :meth:`fit`:

* :class:`SpectralMedianDetector` — per-window amplitude-spectrum
  outlier scoring against the population **median** spectrum, with
  per-bin robust (MAD) scales.  Welch-style sub-window averaging
  tames the heavy per-bin noise tails of single-window spectra, and a
  causal trailing-mean integrator accumulates the sustained sub-sigma
  per-bin boosts an always-on Trojan such as A2 produces (the paper's
  one-shot spectral check needs 2048-cycle records for the same
  reason).  Follows the self-referencing spectral-consistency idea of
  arXiv 2601.20163.
* :class:`CrossScalePersistenceDetector` — the same robust spectral
  scoring computed at several sub-window lengths, keeping the
  **minimum** across scales: a real always-on Trojan boosts its
  clock-harmonic comb at every analysis scale, while a noise
  excursion rarely survives all of them (multi-window-length score
  agreement, arXiv 2603.16058).

Scoring pipeline (both detectors, per analysis scale):

1. amplitude spectra of each window's sub-windows, averaged (Welch);
2. robust per-bin z against the baseline median/MAD-scale — the
   stored :meth:`fit` baseline when one exists, else the scored
   population's own statistics (transductive);
3. causal trailing-mean smoothing of each bin's z column over
   ``smooth_len`` windows (an expanding mean during warm-up);
4. bin selection by exceedance rate of the **smoothed** columns above
   ``z_cut / sqrt(smooth_len)`` — selection on raw z would pick
   heavy-tailed noise bins over the comb, smoothing Gaussianises the
   tails first;
5. score = mean smoothed z over the ``top_bins`` selected bins.

The scoring is one-sided (emission *boosts*), matching the magnitude-
increase criterion of :func:`repro.analysis.spectral.compare_spectra`;
Trojans that only depress amplitude score below the population and are
out of scope for these detectors (the tournament reports that
honestly as sub-0.5 AUC).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.spectral import amplitude_spectrum
from repro.detectors.base import DetectorDecision, DetectorInfo
from repro.detectors.registry import register_detector
from repro.errors import AnalysisError

#: Floor applied to per-bin MAD scales, relative to the median scale
#: (dead bins would otherwise blow the z of any epsilon excursion).
SCALE_FLOOR_FRACTION = 1e-3

#: Absolute floor of the MAD scales: the relative floor is zero when
#: most bins of a population have no spread.
MIN_SCALE = 1e-30

#: Minimum windows for a stored population baseline (medians over
#: fewer rows are too noisy to anchor streaming scores).
MIN_FIT_WINDOWS = 8


def _robust_stats(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin median and floored MAD scale of a spectrum population."""
    med = np.median(spectra, axis=0)
    mad = np.median(np.abs(spectra - med[None, :]), axis=0)
    scale = 1.4826 * mad
    floor = max(float(np.median(scale)) * SCALE_FLOOR_FRACTION, MIN_SCALE)
    return med, np.maximum(scale, floor)


def _causal_smooth(z: np.ndarray, length: int) -> np.ndarray:
    """Trailing mean of each column over *length* rows (causal).

    Row *i* averages rows ``max(0, i+1-length) .. i`` — an expanding
    mean during warm-up, a fixed-length trailing mean afterwards.
    """
    csum = np.vstack([np.zeros((1, z.shape[1])), np.cumsum(z, axis=0)])
    idx = np.arange(z.shape[0])
    lo = np.maximum(idx + 1 - length, 0)
    return (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)[:, None]


class _RobustSpectralDetector:
    """Shared machinery of the two reference-free plugins."""

    #: Robust per-bin scoring needs the population statistics of the
    #: whole stream; the dense batched engine's fingerprint-distance
    #: path cannot express that.
    supports_batched = False

    def __init__(
        self,
        scales: tuple[int, ...],
        smooth_len: int = 32,
        top_bins: int = 8,
        z_cut: float = 2.0,
        flag_sigma: float = 3.0,
        alarm_fraction: float = 0.05,
    ) -> None:
        scales = tuple(int(s) for s in scales)
        if not scales or any(s < 1 for s in scales):
            raise AnalysisError(
                f"scales must be positive integers, got {scales}"
            )
        if smooth_len < 1:
            raise AnalysisError(f"smooth_len must be >= 1, got {smooth_len}")
        if top_bins < 1:
            raise AnalysisError(f"top_bins must be >= 1, got {top_bins}")
        if z_cut <= 0 or flag_sigma <= 0:
            raise AnalysisError("z_cut and flag_sigma must be > 0")
        if not 0.0 < alarm_fraction < 1.0:
            raise AnalysisError(
                f"alarm_fraction must be in (0, 1), got {alarm_fraction}"
            )
        self.scales = scales
        self.smooth_len = int(smooth_len)
        self.top_bins = int(top_bins)
        self.z_cut = float(z_cut)
        self.flag_sigma = float(flag_sigma)
        self.alarm_fraction = float(alarm_fraction)
        #: Per-scale ``(median, scale)`` baselines; ``None`` until a
        #: non-empty population is fitted (transductive mode).
        self._baseline: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._n_fit: int | None = None
        self._d_rms: float | None = None

    # -- features ------------------------------------------------------
    def _welch(self, traces: np.ndarray, k: int) -> np.ndarray:
        """Mean amplitude spectrum of each window's *k* sub-windows."""
        x = np.asarray(traces, dtype=np.float64)
        if x.ndim != 2:
            raise AnalysisError(f"expected 2-D windows, got shape {x.shape}")
        n, width = x.shape
        sub = width // k
        if sub < 8:
            raise AnalysisError(
                f"{width}-sample windows are too short for {k} sub-windows"
            )
        parts = x[:, : k * sub].reshape(n * k, sub)
        amps = amplitude_spectrum(parts, fs=1.0, average=False).amplitude
        # Skip the DC bin: mean level is not a spectral signature.
        return amps.reshape(n, k, -1).mean(axis=1)[:, 1:]

    def features(self, traces: np.ndarray) -> np.ndarray:
        """Primary-scale Welch spectra (what the monitor averages)."""
        return self._welch(traces, self.scales[0])

    @property
    def fingerprint(self) -> np.ndarray:
        """Baseline median spectrum at the primary scale (read-only)."""
        if self._baseline is None:
            raise AnalysisError("detector used before fit()")
        view = self._baseline[0][0].view()
        view.flags.writeable = False
        return view

    # -- fit -----------------------------------------------------------
    def fit(self, traces: np.ndarray):
        """Characterise an **unlabeled** window population.

        No golden labelling is assumed: *traces* is whatever the
        deployment can observe.  An empty array selects transductive
        mode — :meth:`score` then anchors each batch to its own
        population statistics, so the detector never sees a reference
        window at all.
        """
        x = np.asarray(traces, dtype=np.float64)
        if x.size == 0:
            self._baseline = None
            self._n_fit = None
            self._d_rms = None
            return self
        if x.ndim != 2 or x.shape[0] < MIN_FIT_WINDOWS:
            raise AnalysisError(
                f"need at least {MIN_FIT_WINDOWS} windows to fit a "
                f"population baseline, got shape {x.shape}"
            )
        baseline = [_robust_stats(self._welch(x, k)) for k in self.scales]
        if any(np.median(scale) <= MIN_SCALE for _, scale in baseline):
            raise AnalysisError(
                "most spectral bins of the fit population have no spread "
                "(constant windows?); robust z-scores against it would be "
                "unbounded"
            )
        self._baseline = baseline
        self._n_fit = int(x.shape[0])
        # Streaming calibration: RMS spectral distance of the fit
        # population to its own median, the analogue of the golden
        # detector's per-trace distance RMS.
        deltas = self._welch(x, self.scales[0]) - self._baseline[0][0][None, :]
        self._d_rms = float(np.sqrt(np.mean(np.sum(deltas**2, axis=1))))
        return self

    # -- scoring -------------------------------------------------------
    def _scale_scores(self, traces: np.ndarray, index: int) -> np.ndarray:
        spectra = self._welch(traces, self.scales[index])
        if self._baseline is not None:
            med, scale = self._baseline[index]
            if med.shape != spectra.shape[1:]:
                raise AnalysisError(
                    "window length differs from the fitted population"
                )
        else:
            med, scale = _robust_stats(spectra)
        z = (spectra - med[None, :]) / scale[None, :]
        smoothed = _causal_smooth(z, self.smooth_len)
        cut = self.z_cut / np.sqrt(self.smooth_len)
        rate = (smoothed > cut).mean(axis=0)
        top = min(self.top_bins, rate.shape[0])
        selected = np.argsort(-rate)[:top]
        return smoothed[:, selected].mean(axis=1)

    def score(self, traces: np.ndarray) -> np.ndarray:
        """Per-window anomaly score, in smoothed robust-z units."""
        per_scale = [
            self._scale_scores(traces, i) for i in range(len(self.scales))
        ]
        if len(per_scale) == 1:
            return per_scale[0]
        return np.min(np.stack(per_scale), axis=0)

    def decide(self, scores: np.ndarray) -> DetectorDecision:
        """Self-calibrating verdict on a score stream.

        A window is flagged when its score sits ``flag_sigma`` robust
        sigmas above the stream median (clean windows dominate any
        realistic stream, so the median anchors to them); the stream
        is flagged when more than ``alarm_fraction`` of windows
        exceed.  Golden streams stay well under the fraction even with
        the smoothing-induced autocorrelation.
        """
        s = np.asarray(scores, dtype=np.float64).ravel()
        if s.size == 0:
            return DetectorDecision(
                detected=False, threshold=0.0, exceed_fraction=0.0
            )
        med = float(np.median(s))
        sigma = 1.4826 * float(np.median(np.abs(s - med)))
        threshold = med + self.flag_sigma * max(sigma, 1e-30)
        exceed = float((s > threshold).mean())
        return DetectorDecision(
            detected=exceed > self.alarm_fraction,
            threshold=threshold,
            exceed_fraction=exceed,
        )

    # -- streaming integration ----------------------------------------
    def streaming_threshold(self, window: int) -> float:
        """Three-sigma envelope for a W-window sliding spectral mean.

        Mirrors the monitor's analytic H0 threshold with the fitted
        population playing the reference role: a W-window mean
        spectrum fluctuates around the median at
        ``d_rms * sqrt(1/W + 1/n_fit)``.
        """
        if self._d_rms is None or self._n_fit is None:
            raise AnalysisError(
                "streaming threshold needs a fitted population baseline"
            )
        if window < 1:
            raise AnalysisError(f"window must be >= 1, got {window}")
        return float(
            3.0 * self._d_rms * np.sqrt(1.0 / window + 1.0 / self._n_fit)
        )

    def floor_threshold(self, window: int) -> float:
        """Fleet-session threshold; same envelope as streaming."""
        return self.streaming_threshold(window)

    # -- state round trip ----------------------------------------------
    def state_dict(self) -> dict:
        """JSON-encodable fitted state (floats survive exactly)."""
        return {
            "scales": list(self.scales),
            "smooth_len": self.smooth_len,
            "top_bins": self.top_bins,
            "z_cut": self.z_cut,
            "flag_sigma": self.flag_sigma,
            "alarm_fraction": self.alarm_fraction,
            "baseline": (
                None
                if self._baseline is None
                else [
                    {"median": med.tolist(), "scale": scale.tolist()}
                    for med, scale in self._baseline
                ]
            ),
            "n_fit": self._n_fit,
            "d_rms": self._d_rms,
        }

    def _load_state(self, state: dict) -> None:
        if state["baseline"] is None:
            self._baseline = None
        else:
            self._baseline = [
                (
                    np.asarray(entry["median"], dtype=np.float64),
                    np.asarray(entry["scale"], dtype=np.float64),
                )
                for entry in state["baseline"]
            ]
        self._n_fit = (
            int(state["n_fit"]) if state["n_fit"] is not None else None
        )
        self._d_rms = (
            float(state["d_rms"]) if state["d_rms"] is not None else None
        )

    @classmethod
    def _common_kwargs(cls, state: dict) -> dict:
        return dict(
            smooth_len=int(state["smooth_len"]),
            top_bins=int(state["top_bins"]),
            z_cut=float(state["z_cut"]),
            flag_sigma=float(state["flag_sigma"]),
            alarm_fraction=float(state["alarm_fraction"]),
        )


@register_detector
class SpectralMedianDetector(_RobustSpectralDetector):
    """Population-median spectral outlier scoring (reference-free)."""

    info = DetectorInfo(
        name="spectral_median",
        summary=(
            "Welch-averaged window spectra scored against the "
            "population median with robust per-bin scales; causal "
            "integration accumulates sustained comb boosts"
        ),
        reference_free=True,
        paper_ref="arXiv 2601.20163",
    )

    def __init__(self, welch_k: int = 4, **kwargs) -> None:
        super().__init__(scales=(int(welch_k),), **kwargs)
        self.welch_k = int(welch_k)

    def state_dict(self) -> dict:
        state = super().state_dict()
        del state["scales"]
        state["welch_k"] = self.welch_k
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SpectralMedianDetector":
        det = cls(
            welch_k=int(state["welch_k"]), **cls._common_kwargs(state)
        )
        det._load_state(state)
        return det


@register_detector
class CrossScalePersistenceDetector(_RobustSpectralDetector):
    """Multi-window-length score agreement (reference-free)."""

    info = DetectorInfo(
        name="persistence",
        summary=(
            "Robust spectral scores at several sub-window lengths, "
            "keeping the minimum: an always-on Trojan persists across "
            "every analysis scale, noise excursions do not"
        ),
        reference_free=True,
        paper_ref="arXiv 2603.16058",
    )

    def __init__(self, scales: tuple[int, ...] = (1, 2, 4), **kwargs) -> None:
        super().__init__(scales=tuple(scales), **kwargs)

    @classmethod
    def from_state(cls, state: dict) -> "CrossScalePersistenceDetector":
        det = cls(
            scales=tuple(int(s) for s in state["scales"]),
            **cls._common_kwargs(state),
        )
        det._load_state(state)
        return det
