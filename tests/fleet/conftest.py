"""Shared fixtures for the fleet service tests.

Fleet tests run against a synthetic evaluator (a detector fitted on
sinusoid-plus-noise golden traces, as in the monitor tests) so they
exercise the streaming machinery without paying for chip simulation.
"""

import copy

import numpy as np
import pytest

from repro.analysis.euclidean import EuclideanDetector
from repro.framework.evaluator import EvaluatorConfig, RuntimeTrustEvaluator


def batches(feed):
    """A feed's arrival batches, in order."""
    return [feed.batch_at(i) for i in range(feed.n_batches)]


def per_session_evaluator(evaluator):
    """*evaluator*'s fitted detector, barred from dense fleet scoring.

    A shallow copy of the detector with ``supports_batched = False``,
    wrapped in a copy of the evaluator: the fleet engine scores every
    session through :meth:`MonitorSession.ingest`, the per-session
    reference that dense scoring must match byte for byte.
    """
    detector = copy.copy(evaluator.detector)
    detector.supports_batched = False
    reference = copy.copy(evaluator)
    reference.detector = detector
    return reference


@pytest.fixture()
def fleet_rng():
    return np.random.default_rng(0xF1EE7)


@pytest.fixture()
def synthetic(fleet_rng):
    """(evaluator, golden base waveform) over synthetic golden traces."""
    length = 200
    base = np.sin(np.linspace(0, 15, length))
    golden = base[None, :] + 0.05 * fleet_rng.normal(size=(128, length))
    detector = EuclideanDetector().fit(golden)
    ev = RuntimeTrustEvaluator.__new__(RuntimeTrustEvaluator)
    ev.detector = detector
    ev.config = EvaluatorConfig()
    return ev, base


@pytest.fixture()
def streams(synthetic, fleet_rng):
    """Two labelled streams: a clean chip and a Trojan-shifted chip."""
    _, base = synthetic
    clean = base[None, :] + 0.05 * fleet_rng.normal(size=(120, base.size))
    shifted = base + 0.4 * np.cos(np.linspace(0, 9, base.size))
    bad = shifted[None, :] + 0.05 * fleet_rng.normal(size=(120, base.size))
    return {"clean": clean, "bad": bad}
