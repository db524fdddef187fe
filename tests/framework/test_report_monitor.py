"""Tests for trust reports and the streaming runtime monitor."""

import numpy as np
import pytest

from repro.analysis.euclidean import EuclideanDetector
from repro.errors import AnalysisError
from repro.framework.evaluator import EvaluatorConfig, RuntimeTrustEvaluator
from repro.framework.monitor import RuntimeMonitor
from repro.framework.report import TrustReport, Verdict, combine_verdicts


def test_verdict_combination():
    assert combine_verdicts(False, False) is Verdict.TRUSTED
    assert combine_verdicts(True, False) is Verdict.SUSPECT_TIME_DOMAIN
    assert combine_verdicts(False, True) is Verdict.SUSPECT_SPECTRAL
    assert combine_verdicts(True, True) is Verdict.SUSPECT_BOTH


def test_verdict_alarm_property():
    assert not Verdict.TRUSTED.is_alarm
    for v in (
        Verdict.SUSPECT_TIME_DOMAIN,
        Verdict.SUSPECT_SPECTRAL,
        Verdict.SUSPECT_BOTH,
    ):
        assert v.is_alarm


def test_report_format_mentions_verdict():
    report = TrustReport(verdict=Verdict.TRUSTED, notes=["all good"])
    text = report.format()
    assert "trusted" in text and "all good" in text


def _synthetic_evaluator(rng, n=128, length=200):
    base = np.sin(np.linspace(0, 15, length))
    golden = base[None, :] + 0.05 * rng.normal(size=(n, length))
    detector = EuclideanDetector().fit(golden)
    ev = RuntimeTrustEvaluator.__new__(RuntimeTrustEvaluator)
    ev.detector = detector
    ev.golden_spectrum = None
    ev.fs = 1e9
    ev.config = EvaluatorConfig()
    return ev, base


def test_monitor_quiet_on_golden_stream(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=16, confirm=2)
    stream = base[None, :] + 0.05 * rng.normal(size=(200, base.size))
    events = monitor.observe_stream(stream)
    assert events == []
    assert monitor.alarms == []


def test_monitor_alarms_on_shifted_stream(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=16, confirm=3)
    bad = base + 0.4 * np.cos(np.linspace(0, 9, base.size))
    stream = bad[None, :] + 0.05 * rng.normal(size=(100, base.size))
    events = monitor.observe_stream(stream)
    assert events, "expected an alarm"
    first = events[0]
    assert first.separation > first.threshold
    assert "envelope" in first.message


def test_monitor_hysteresis_suppresses_single_outlier(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=4)
    golden_stream = base[None, :] + 0.05 * rng.normal(size=(50, base.size))
    events = monitor.observe_stream(golden_stream[:30])
    assert not events
    # One moderately wild window must not alarm with confirm=4.
    outlier = base + 0.3 * rng.normal(size=base.size)
    assert monitor.observe(outlier) is None
    events = monitor.observe_stream(golden_stream[30:])
    assert not events


def test_monitor_recovers_after_alarm(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=2)
    bad = base + 0.5 * np.cos(np.linspace(0, 9, base.size))
    monitor.observe_stream(bad[None, :] + 0.05 * rng.normal(size=(30, base.size)))
    assert len(monitor.alarms) >= 1


def test_monitor_validation(rng):
    ev, _base = _synthetic_evaluator(rng)
    with pytest.raises(AnalysisError):
        RuntimeMonitor(ev, window=1)
    with pytest.raises(AnalysisError):
        RuntimeMonitor(ev, confirm=0)
    monitor = RuntimeMonitor(ev)
    with pytest.raises(AnalysisError):
        monitor.current_separation()


def test_monitor_no_alarm_before_window_fills(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=16, confirm=1, threshold=1e-9)
    # Wildly out-of-envelope windows, but fewer than the window length:
    # the sliding estimate is not ready, so no alarm may fire yet.
    bad = base + 2.0 * np.cos(np.linspace(0, 9, base.size))
    stream = bad[None, :] + 0.05 * rng.normal(size=(15, base.size))
    assert monitor.observe_stream(stream) == []
    # The very next window completes the estimate and trips confirm=1.
    event = monitor.observe(stream[0])
    assert event is not None
    assert event.window_index == 16


def test_monitor_confirm_one_alarms_on_first_crossing(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=1)
    bad = base + 0.5 * np.cos(np.linspace(0, 9, base.size))
    events = monitor.observe_stream(
        bad[None, :] + 0.05 * rng.normal(size=(8, base.size))
    )
    assert len(events) == 1
    assert events[0].window_index == 8


def test_monitor_does_not_realarm_while_streak_persists(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=2)
    bad = base + 0.5 * np.cos(np.linspace(0, 9, base.size))
    stream = bad[None, :] + 0.05 * rng.normal(size=(60, base.size))
    events = monitor.observe_stream(stream)
    # The separation stays above threshold for the whole stream: one
    # alarm when the streak reaches confirm, then silence.
    assert len(events) == 1
    assert monitor.alarms == events


def test_monitor_streak_resets_and_realarm_after_recovery(rng):
    # Noiseless windows + a threshold placed so that only all-bad
    # sliding windows are out of envelope make the streak dynamics
    # exact: [golden, bad] mixes sit at ~half the full separation.
    ev, base = _synthetic_evaluator(rng)
    detector = ev.detector
    bad = base + 0.5 * np.cos(np.linspace(0, 9, base.size))
    full_sep = float(
        np.linalg.norm(
            detector.features(bad[None, :])[0] - detector.fingerprint
        )
    )
    monitor = RuntimeMonitor(
        ev, window=2, confirm=2, threshold=0.75 * full_sep
    )
    assert monitor.observe_stream(np.tile(base, (4, 1))) == []
    # One all-bad window starts the streak (1 < confirm)...
    assert monitor.observe(bad) is None  # window [golden, bad]: inside
    assert monitor.observe(bad) is None  # window [bad, bad]: streak 1
    # ...then a recovery window resets it without ever alarming.
    assert monitor.observe(base) is None  # [bad, golden]: inside again
    assert monitor._streak == 0 and monitor.alarms == []
    # A fresh excursion must re-earn both confirmations.
    assert monitor.observe(bad) is None   # [golden, bad]: inside
    assert monitor.observe(bad) is None   # [bad, bad]: streak 1
    first = monitor.observe(bad)          # [bad, bad]: streak 2 -> alarm
    assert first is not None
    # Recovery, then a second excursion: the monitor re-alarms.
    assert monitor.observe_stream(np.tile(base, (3, 1))) == []
    second = monitor.observe_stream(np.tile(bad, (4, 1)))
    assert len(second) == 1
    assert monitor.alarms == [first, second[0]]
    assert second[0].window_index > first.window_index


def test_monitor_running_sum_matches_restacked_mean(rng):
    # The O(1) running feature sum must track the exact windowed mean,
    # across the periodic drift-control refresh.
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=3)
    monitor.REFRESH_EVERY = 16  # cross several refresh boundaries
    detector = ev.detector
    stream = base[None, :] + 0.08 * rng.normal(size=(100, base.size))
    for trace in stream:
        monitor.observe(trace)
        reference = np.linalg.norm(
            np.stack(monitor._features).mean(axis=0) - detector.fingerprint
        )
        assert monitor.current_separation() == pytest.approx(
            float(reference), abs=1e-12
        )


def test_monitor_observe_stream_equals_per_trace_observe(rng):
    ev, base = _synthetic_evaluator(rng)
    bad = base + 0.4 * np.cos(np.linspace(0, 9, base.size))
    stream = bad[None, :] + 0.05 * rng.normal(size=(50, base.size))
    one_by_one = RuntimeMonitor(ev, window=8, confirm=2)
    events_single = [
        e for t in stream if (e := one_by_one.observe(t)) is not None
    ]
    vectorised = RuntimeMonitor(ev, window=8, confirm=2)
    events_stream = vectorised.observe_stream(stream)
    assert events_stream == events_single
    assert vectorised.current_separation() == one_by_one.current_separation()


def test_observe_features_keeps_float64_rows_uncopied(rng):
    # The fleet hot path hands the detector's float64 feature matrix
    # straight in; the monitor must keep row views, not asarray copies.
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=2)
    stream = base[None, :] + 0.05 * rng.normal(size=(6, base.size))
    feats = ev.detector.features(stream)
    assert feats.dtype == np.float64 and feats.ndim == 2
    monitor.observe_features(feats)
    for row in monitor._features:
        assert np.shares_memory(row, feats)


def test_observe_features_converts_other_dtypes(rng):
    # Non-float64 input still goes through one conversion copy.
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=4, confirm=2)
    feats = ev.detector.features(
        base[None, :] + 0.05 * rng.normal(size=(3, base.size))
    ).astype(np.float32)
    monitor.observe_features(feats)
    for row in monitor._features:
        assert row.dtype == np.float64
        assert not np.shares_memory(row, feats)


def test_monitor_explicit_threshold(rng):
    ev, base = _synthetic_evaluator(rng)
    monitor = RuntimeMonitor(ev, window=8, confirm=1, threshold=0.25)
    assert monitor.threshold == 0.25
    with pytest.raises(AnalysisError):
        RuntimeMonitor(ev, threshold=0.0)
    with pytest.raises(AnalysisError):
        RuntimeMonitor(ev, threshold=-1.0)
