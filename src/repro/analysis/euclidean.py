"""Euclidean-distance Trojan detector with the paper's Eq. (1) threshold.

"The threshold value is defined to be the maximum Euclidean distance
among the data of Trojan-free design":

.. math::

    ED_{th} = \\arg\\max_{D_i, D_j \\in D_g} \\lVert D_i - D_j \\rVert_2

Traces are compared as *shapes*: each trace is mean-removed and scaled
to unit L2 norm before any distance is taken.  That normalisation is
what puts every distance in the paper's 0–1.5 range (Fig. 6 axes) and
bounds the metric at 2 regardless of how loud a Trojan is — a huge
power waster (T4) and a mid-size leaker (T1) then land at comparable
distances, exactly as Table I's sizes vs Section IV-C's 0.27/0.25/
0.05/0.28 show.

A PCA stage (fit on golden data) can optionally denoise the features;
the default follows the paper's raw-trace processing ("we only perform
the analysis on the raw data from on-chip sensor directly").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.pca import PCA
from repro.errors import AnalysisError


def normalize_traces(traces: np.ndarray) -> np.ndarray:
    """Mean-remove and unit-norm every trace (row).

    Raises
    ------
    AnalysisError
        If any trace is constant (no shape to compare).
    """
    x = np.asarray(traces, dtype=np.float64)
    if x.ndim != 2:
        raise AnalysisError(f"traces must be (n, samples), got {x.shape}")
    x = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise AnalysisError("cannot normalise a constant trace")
    # ``x`` is a fresh array here, so dividing in place is safe and
    # saves one full-matrix allocation on the fleet hot path.
    x /= norms
    return x


def euclidean_distances(data: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """L2 distance of each row of *data* to a single *reference* vector."""
    x = np.asarray(data, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if x.ndim != 2 or ref.shape != (x.shape[1],):
        raise AnalysisError(
            f"data {x.shape} / reference {ref.shape} shape mismatch"
        )
    return np.linalg.norm(x - ref[None, :], axis=1)


def pairwise_max_distance(data: np.ndarray, chunk: int = 512) -> float:
    """Maximum pairwise L2 distance within *data* (Eq. (1)), chunked."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise AnalysisError("need at least two golden vectors for Eq. (1)")
    sq = (x**2).sum(axis=1)
    best = 0.0
    for i0 in range(0, x.shape[0], chunk):
        xi = x[i0 : i0 + chunk]
        d2 = sq[i0 : i0 + chunk, None] + sq[None, :] - 2.0 * (xi @ x.T)
        best = max(best, float(d2.max()))
    return float(np.sqrt(max(best, 0.0)))


#: Alias used by the public API (the paper calls this EDth).
max_intra_distance = pairwise_max_distance


def _bootstrap_orders(
    rng: np.random.Generator, n: int, n_bootstrap: int
) -> np.ndarray:
    """All split-half permutations at once, shape ``(n_bootstrap, n)``.

    One ``permuted`` call on a tiled index matrix replaces
    ``n_bootstrap`` sequential ``permutation`` draws.
    """
    return rng.permuted(
        np.broadcast_to(np.arange(n), (n_bootstrap, n)), axis=1
    )


def _split_half_floors(feats: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Split-half mean distances for every permutation, vectorised.

    For each row of *orders* the first and second half index a golden
    subset; both half-means are formed in one indicator-matrix matmul
    (``(2B, n) @ (n, d)``) instead of a Python loop of fancy-indexed
    means.
    """
    n_bootstrap, n = orders.shape
    half = n // 2
    indicator = np.zeros((2 * n_bootstrap, n))
    rows = np.repeat(np.arange(n_bootstrap), half)
    indicator[2 * rows, orders[:, :half].ravel()] = 1.0
    indicator[2 * rows + 1, orders[:, half : 2 * half].ravel()] = 1.0
    means = (indicator @ feats) / half
    return np.linalg.norm(means[0::2] - means[1::2], axis=1)


@dataclass
class DistanceReport:
    """Distances of a suspect set plus the verdict."""

    distances: np.ndarray
    threshold: float
    mean_distance: float
    exceed_fraction: float
    separation: float
    #: Largest separation explainable by golden sampling noise alone
    #: (bootstrap split-half estimate scaled by a safety factor).
    separation_floor: float

    @property
    def detected(self) -> bool:
        """Verdict: the suspect set's systematic shift exceeds what
        golden sampling noise can produce, or individual traces trip
        the Eq. (1) threshold in bulk."""
        return (
            self.separation > self.separation_floor
            or self.exceed_fraction > 0.5
        )


class EuclideanDetector:
    """Golden-model fingerprint + Eq. (1) threshold in unit-norm space."""

    #: Safety factor on the bootstrap separation floor.
    FLOOR_FACTOR = 1.5

    def __init__(
        self,
        n_components: int | None = None,
        n_bootstrap: int = 32,
        seed: int = 0,
    ) -> None:
        self.n_components = n_components
        self.n_bootstrap = n_bootstrap
        self.seed = seed
        self._pca: PCA | None = None
        self._fingerprint: np.ndarray | None = None
        self.threshold: float | None = None
        self.golden_distances: np.ndarray | None = None
        self.separation_floor: float | None = None

    # ------------------------------------------------------------------
    def fit(self, golden_traces: np.ndarray) -> "EuclideanDetector":
        """Learn the fingerprint and Eq. (1) threshold from Trojan-free
        traces."""
        x = np.asarray(golden_traces, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise AnalysisError("need at least two golden traces to fit")
        feats = normalize_traces(x)
        if self.n_components is not None:
            k = min(self.n_components, feats.shape[0] - 1, feats.shape[1])
            self._pca = PCA(k).fit(feats)
            feats = self._pca.transform(feats)
        return self._fit_stats(feats)

    def _fit_stats(self, feats: np.ndarray) -> "EuclideanDetector":
        """Golden statistics from already-extracted feature rows.

        The feature space is whatever :meth:`features` produces —
        unit-norm trace shapes here, per-window amplitude spectra in
        the registry's spectral plugin — and every derived statistic
        (fingerprint, Eq. (1) threshold, per-row distances, bootstrap
        separation floor) is computed the same way in either space.
        """
        self._fingerprint = feats.mean(axis=0)
        self.threshold = pairwise_max_distance(feats)
        self.golden_distances = euclidean_distances(feats, self._fingerprint)
        # Bootstrap the separation a golden-vs-golden comparison can
        # reach by sampling alone: random split-half mean distances.
        rng = np.random.default_rng(self.seed)
        orders = _bootstrap_orders(rng, feats.shape[0], self.n_bootstrap)
        floors = _split_half_floors(feats, orders)
        self.separation_floor = self.FLOOR_FACTOR * float(floors.max())
        return self

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Fitted state as JSON-encodable primitives.

        Together with :meth:`from_state` this lets the golden
        fingerprint be computed once and served from the artifact
        cache — the paper's runtime framing, where characterisation
        happens before deployment and every suspect evaluation reuses
        the stored reference.
        """
        if self._fingerprint is None or self.threshold is None:
            raise AnalysisError("cannot serialise an unfitted detector")
        state = {
            "n_components": self.n_components,
            "n_bootstrap": self.n_bootstrap,
            "seed": self.seed,
            "threshold": self.threshold,
            "separation_floor": self.separation_floor,
            "fingerprint": self._fingerprint.tolist(),
            "golden_distances": self.golden_distances.tolist(),
            "pca": None,
        }
        if self._pca is not None:
            state["pca"] = {
                "n_components": self._pca.n_components,
                "mean": self._pca.mean_.tolist(),
                "components": self._pca.components_.tolist(),
                "explained_variance": self._pca.explained_variance_.tolist(),
                "explained_variance_ratio":
                    self._pca.explained_variance_ratio_.tolist(),
            }
        return state

    @classmethod
    def from_state(cls, state: dict) -> "EuclideanDetector":
        """Rebuild a fitted detector from :meth:`state_dict` output."""
        det = cls(
            n_components=state["n_components"],
            n_bootstrap=state["n_bootstrap"],
            seed=state["seed"],
        )
        det.threshold = float(state["threshold"])
        det.separation_floor = (
            float(state["separation_floor"])
            if state["separation_floor"] is not None
            else None
        )
        det._fingerprint = np.asarray(state["fingerprint"], dtype=np.float64)
        det.golden_distances = np.asarray(
            state["golden_distances"], dtype=np.float64
        )
        pca_state = state.get("pca")
        if pca_state is not None:
            pca = PCA(pca_state["n_components"])
            pca.mean_ = np.asarray(pca_state["mean"], dtype=np.float64)
            pca.components_ = np.asarray(
                pca_state["components"], dtype=np.float64
            )
            pca.explained_variance_ = np.asarray(
                pca_state["explained_variance"], dtype=np.float64
            )
            pca.explained_variance_ratio_ = np.asarray(
                pca_state["explained_variance_ratio"], dtype=np.float64
            )
            det._pca = pca
        return det

    @property
    def fingerprint(self) -> np.ndarray:
        """Golden mean feature vector (read-only).

        Raises
        ------
        AnalysisError
            If the detector has not been fitted.
        """
        if self._fingerprint is None:
            raise AnalysisError("detector used before fit()")
        view = self._fingerprint.view()
        view.flags.writeable = False
        return view

    @property
    def uses_pca(self) -> bool:
        """Whether :meth:`features` applies a fitted PCA projection.

        Row-wise normalisation alone is independent across traces, so
        features of many chips' windows can be extracted in one
        batched call with bit-identical results; the PCA matmul is not
        row-blocking-invariant, so the dense fleet engine scores a
        detector with this flag set session by session.
        """
        return self._pca is not None

    def features(self, traces: np.ndarray) -> np.ndarray:
        """Normalise (and PCA-project, if fitted so) traces."""
        feats = normalize_traces(traces)
        if self._pca is not None:
            feats = self._pca.transform(feats)
        return feats

    def distances(self, traces: np.ndarray) -> np.ndarray:
        """Distance of each trace to the golden fingerprint."""
        if self._fingerprint is None:
            raise AnalysisError("detector used before fit()")
        return euclidean_distances(self.features(traces), self._fingerprint)

    def separation(self, traces: np.ndarray) -> float:
        """Paper-style single-number Euclidean distance between designs.

        The Section IV-C numbers compare the suspect set's *mean*
        feature vector against the golden fingerprint, averaging out
        plaintext-to-plaintext variation and leaving the systematic
        shift the Trojan causes.
        """
        if self._fingerprint is None:
            raise AnalysisError("detector used before fit()")
        feats = self.features(traces)
        return float(np.linalg.norm(feats.mean(axis=0) - self._fingerprint))

    def evaluate(self, traces: np.ndarray) -> DistanceReport:
        """Score a suspect trace set against the golden fingerprint."""
        if self.threshold is None or self.separation_floor is None:
            raise AnalysisError("detector used before fit()")
        d = self.distances(traces)
        return DistanceReport(
            distances=d,
            threshold=self.threshold,
            mean_distance=float(d.mean()),
            exceed_fraction=float((d > self.threshold).mean()),
            separation=self.separation(traces),
            separation_floor=self.separation_floor,
        )
