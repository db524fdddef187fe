"""Tests for per-chip monitor sessions."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.fleet import (
    EventJournal,
    MetricsRegistry,
    MonitorSession,
    TraceFeed,
    floor_scaled_threshold,
)
from repro.fleet.feed import WindowBatch
from tests.fleet.conftest import batches


def test_floor_scaled_threshold_geometry(synthetic):
    ev, _ = synthetic
    detector = ev.detector
    n = detector.golden_distances.shape[0]
    # thr(W) = floor * sqrt((1/W + 1/n) * n / 4): the bootstrapped
    # split-half envelope rescaled to W-window-mean noise.
    for window in (16, 64, 256):
        expected = detector.separation_floor * np.sqrt(
            (1.0 / window + 1.0 / n) * n / 4.0
        )
        assert floor_scaled_threshold(detector, window) == pytest.approx(
            float(expected)
        )
    # Longer windows average more noise away: tighter threshold.
    assert floor_scaled_threshold(detector, 256) < \
        floor_scaled_threshold(detector, 16)
    from repro.analysis.euclidean import EuclideanDetector

    with pytest.raises(AnalysisError):
        floor_scaled_threshold(EuclideanDetector(), 16)


def test_session_threshold_modes(synthetic):
    ev, _ = synthetic
    floor = MonitorSession("c", ev, window=16, threshold="floor")
    assert floor.monitor.threshold == pytest.approx(
        floor_scaled_threshold(ev.detector, 16)
    )
    explicit = MonitorSession("c", ev, window=16, threshold=0.5)
    assert explicit.monitor.threshold == 0.5
    analytic = MonitorSession("c", ev, window=16, threshold=None)
    assert analytic.monitor.threshold > 0
    with pytest.raises(AnalysisError):
        MonitorSession("c", ev, threshold="bogus")


def test_session_rejects_foreign_batches(synthetic, streams):
    ev, _ = synthetic
    session = MonitorSession("c0", ev, window=8)
    feed = TraceFeed("c1", streams["clean"], batch=8)
    with pytest.raises(AnalysisError):
        session.ingest(feed.batch_at(0))


def test_session_accounts_gaps_and_out_of_order(synthetic, streams):
    ev, _ = synthetic
    session = MonitorSession("c", ev, window=8)
    traces = streams["clean"]
    # seqs 0,1,  5 (gap),  3 (regression), delivered as one batch.
    batch = WindowBatch(
        chip_id="c", seqs=(0, 1, 5, 3), traces=traces[[0, 1, 5, 3]]
    )
    session.ingest(batch)
    assert session.windows_ingested == 4
    assert session.gaps == 1
    assert session.out_of_order == 1


def test_session_journals_alarm_with_source_seq(synthetic, streams):
    ev, _ = synthetic
    metrics = MetricsRegistry()
    journal = EventJournal()
    session = MonitorSession(
        "c", ev, window=8, confirm=2, threshold=0.05,
        metrics=metrics, journal=journal,
    )
    feed = TraceFeed("c", streams["bad"], batch=10)
    for batch in batches(feed):
        session.ingest(batch)
    assert session.monitor.alarms
    alarms = [e for e in journal.events if e["kind"] == "alarm"]
    assert alarms
    first = alarms[0]
    assert first["chip"] == "c"
    # The journalled seq is the source window that tripped the alarm
    # (clean feed: seq == window_index - 1).
    assert first["seq"] == first["window_index"] - 1
    assert first["separation"] > first["threshold"]
    assert metrics.counter("chip.c.alarms").value == len(alarms)
    # Stage timing hooks fired once per batch.
    assert (
        len(metrics.histogram("stage.features.seconds").samples())
        == feed.n_batches
    )
    assert (
        len(metrics.histogram("stage.separation.seconds").samples())
        == feed.n_batches
    )
