"""Integration of registry detectors with the framework and fleet.

The backward-compatibility contract: selecting ``"euclidean"`` through
the registry is bit-identical to the analysis class (same state, same
scores, same fleet journal bytes), and non-batchable plugins make the
fleet engine score per session loudly, never silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.euclidean import EuclideanDetector
from repro.detectors import create_detector
from repro.errors import AnalysisError, ExperimentError
from repro.fleet import (
    EventJournal,
    FleetScheduler,
    MetricsRegistry,
    MonitorSession,
    TraceFeed,
)
from repro.fleet.campaign import StreamingOneShot
from repro.framework.batched import BatchedFleetMonitor
from repro.framework.evaluator import EvaluatorConfig, RuntimeTrustEvaluator
from tests.detectors.oneshot_reference import oneshot_report
from tests.fleet.conftest import per_session_evaluator


def _stream(rng, n, length=256, tone=0.0, amp=1.0):
    t = np.arange(length)
    base = np.sin(2 * np.pi * 0.125 * t)
    x = base[None, :] + 0.05 * rng.normal(size=(n, length))
    if tone:
        x = x + amp * np.sin(2 * np.pi * tone * t)[None, :]
    return x


def _evaluator(detector):
    ev = RuntimeTrustEvaluator.__new__(RuntimeTrustEvaluator)
    ev.detector = detector
    ev.golden_spectrum = None
    ev.fs = 1e9
    ev.config = EvaluatorConfig()
    return ev


def _run_fleet(detector, streams, per_session=False):
    metrics = MetricsRegistry()
    journal = EventJournal()
    ev = _evaluator(detector)
    if per_session:
        ev = per_session_evaluator(ev)
    sessions = [
        MonitorSession(c, ev, window=16, confirm=2,
                       metrics=metrics, journal=journal)
        for c in streams
    ]
    feeds = [
        TraceFeed(c, streams[c], batch=8, seed=11) for c in streams
    ]
    scheduler = FleetScheduler(sessions, journal=journal, metrics=metrics)
    return scheduler.run(feeds), journal, metrics


@pytest.fixture()
def streams(rng):
    return {
        "clean": _stream(rng, 120),
        "bad": _stream(rng, 120, tone=0.25, amp=0.4),
    }


class TestEuclideanViaRegistry:
    def test_plugin_state_and_scores_match_analysis_class(self, rng):
        golden = _stream(rng, 128)
        probe = np.vstack([
            _stream(rng, 24), _stream(rng, 24, tone=0.25, amp=0.3)
        ])
        direct = EuclideanDetector().fit(golden)
        plugin = create_detector("euclidean").fit(golden)
        assert plugin.state_dict() == direct.state_dict()
        np.testing.assert_array_equal(
            plugin.score(probe), direct.distances(probe)
        )

    def test_fleet_journal_is_bit_identical(self, rng, streams):
        golden = _stream(rng, 128)
        r_direct, j_direct, _ = _run_fleet(
            EuclideanDetector().fit(golden), streams
        )
        r_plugin, j_plugin, m_plugin = _run_fleet(
            create_detector("euclidean").fit(golden), streams
        )
        assert j_direct.events == j_plugin.events
        for chip in streams:
            assert (
                r_direct.reports[chip].alarms
                == r_plugin.reports[chip].alarms
            )
        counters = m_plugin.snapshot()["counters"]
        assert counters["fleet.scoring.batched"] > 0
        assert "fleet.scoring.batched_fallback" not in counters


class TestBatchedFallback:
    def test_unsupported_detector_falls_back_loudly(self, rng, streams):
        golden = _stream(rng, 128)
        detector = create_detector("spectral_median").fit(golden)
        r_fb, j_fb, m_fb = _run_fleet(detector, streams)
        counters = m_fb.snapshot()["counters"]
        assert counters["fleet.scoring.batched_fallback"] == 1
        assert counters["fleet.scoring.sequential"] == r_fb.windows_ingested
        assert "fleet.scoring.batched" not in counters
        # The fallback is the per-session path the dense engine is
        # checked against: on the Euclidean plugin it flushes the
        # dense run's journal.
        euclidean = create_detector("euclidean").fit(golden)
        r_dense, j_dense, _ = _run_fleet(euclidean, streams)
        r_ref, j_ref, m_ref = _run_fleet(euclidean, streams, per_session=True)
        assert m_ref.snapshot()["counters"][
            "fleet.scoring.batched_fallback"
        ] == 1
        assert j_dense.events == j_ref.events
        for chip in streams:
            assert (
                r_dense.reports[chip].alarms == r_ref.reports[chip].alarms
            )

    def test_batched_engine_rejects_unsupported_detector(self, rng):
        # Direct construction with an unsupported plugin no longer
        # raises: the engine scores the session on its own.
        detector = create_detector("persistence").fit(_stream(rng, 64))
        session = MonitorSession("a", _evaluator(detector), window=16)
        engine = BatchedFleetMonitor([session])
        assert not engine.dense
        counters = session.metrics.snapshot()["counters"]
        assert counters["fleet.scoring.batched_fallback"] == 1


class TestEvaluatorGuards:
    def test_one_shot_evaluation_needs_a_golden_detector(self, rng):
        detector = create_detector("spectral_median").fit(
            _stream(rng, 64)
        )
        ev = _evaluator(detector)
        with pytest.raises(AnalysisError, match="golden-based"):
            ev.evaluate(traces=_stream(rng, 8))


class TestFleetOneShot:
    """The fleet campaign's one-shot verdict for registry plugins.

    :func:`oneshot_report` is the whole-matrix reference; the campaign
    itself accumulates the same statistics with
    :class:`StreamingOneShot`.
    """

    def test_euclidean_path_is_the_historical_evaluate(self, rng):
        detector = EuclideanDetector().fit(_stream(rng, 96))
        suspect = _stream(rng, 48, tone=0.25, amp=0.4)
        report = oneshot_report(detector, suspect)
        expected = detector.evaluate(suspect)
        np.testing.assert_array_equal(report.distances, expected.distances)
        assert report.threshold == expected.threshold
        assert report.separation == expected.separation
        assert report.separation_floor == expected.separation_floor
        assert report.detected == expected.detected

    def test_reference_free_detector_separates_via_envelope(self, rng):
        detector = create_detector("spectral_median").fit(_stream(rng, 128))
        clean = oneshot_report(detector, _stream(rng, 96))
        bad = oneshot_report(
            detector, _stream(rng, 96, tone=0.25, amp=0.4)
        )
        assert not clean.detected
        assert bad.detected
        assert bad.separation > bad.separation_floor
        # The envelope tightens with the window count, as the monitor's
        # analytic H0 threshold does.
        assert clean.separation_floor < clean.threshold

    def test_streaming_accumulator_matches_replay(self, rng):
        detector = create_detector("spectral_median").fit(_stream(rng, 128))
        traces = _stream(rng, 96, tone=0.25, amp=0.4)
        acc = StreamingOneShot(detector)
        acc.set_weights({"chip": np.ones(len(traces))})
        for lo in range(0, len(traces), 32):
            hi = min(lo + 32, len(traces))
            acc(0, lo, hi, {"chip": traces[lo:hi]})
        streamed = acc.report("chip")
        replay = oneshot_report(detector, traces)
        assert streamed.threshold == replay.threshold
        assert streamed.exceed_fraction == replay.exceed_fraction
        assert streamed.separation_floor == replay.separation_floor
        np.testing.assert_allclose(
            streamed.separation, replay.separation, rtol=1e-12
        )
        np.testing.assert_allclose(
            streamed.mean_distance, replay.mean_distance, rtol=1e-12
        )
        assert streamed.detected == replay.detected

    def test_streaming_accumulator_rejects_unfitted_detector(self):
        detector = create_detector("spectral_median").fit(np.empty((0, 0)))
        with pytest.raises(ExperimentError, match="fitted"):
            StreamingOneShot(detector)
