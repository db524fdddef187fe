"""Dense fleet scoring must be bit-identical to per-session scoring.

The :class:`~repro.framework.batched.BatchedFleetMonitor` replaces the
per-chip feature/separation loop with one dense pass per tick; these
tests drive the same multi-chip fleets — link faults, backpressure
drops, the running-sum refresh — once densely and once through the
per-session reference evaluator, and require the exact same alarm
stream, stream accounting and journal.
"""

import copy

import numpy as np
import pytest

from repro.analysis.euclidean import EuclideanDetector
from repro.errors import AnalysisError
from repro.fleet import (
    EventJournal,
    FaultSpec,
    FleetScheduler,
    MetricsRegistry,
    MonitorSession,
    TraceFeed,
)
from repro.framework.batched import BatchedFleetMonitor
from repro.framework.monitor import RuntimeMonitor
from tests.fleet.conftest import batches, per_session_evaluator

FAULTS = FaultSpec(drop=0.05, duplicate=0.05, reorder=0.1)

#: Golden plus five Trojan-style variants with graded envelope shifts
#: (the weakest stays inside, as the golden chip must).
VARIANTS = (
    ("golden", 0.0),
    ("t1", 0.5),
    ("t2", 0.35),
    ("t3", 0.25),
    ("t4", 0.02),
    ("a2", 0.6),
)


@pytest.fixture()
def fleet_streams(synthetic, fleet_rng):
    """Six labelled streams over the shared synthetic golden base."""
    _, base = synthetic
    shape = np.cos(np.linspace(0, 9, base.size))
    return {
        name: (base + amp * shape)[None, :]
        + 0.05 * fleet_rng.normal(size=(96, base.size))
        for name, amp in VARIANTS
    }


def _build(ev, streams, *, policy="block", queue_depth=4,
           consume_every=1, faults=FAULTS, journal=None):
    metrics = MetricsRegistry()
    journal = journal if journal is not None else EventJournal()
    sessions = [
        MonitorSession(c, ev, window=16, confirm=2,
                       metrics=metrics, journal=journal)
        for c in streams
    ]
    feeds = [
        TraceFeed(c, streams[c], batch=8, faults=faults, seed=11)
        for c in streams
    ]
    scheduler = FleetScheduler(
        sessions, queue_depth=queue_depth, policy=policy,
        consume_every=consume_every, journal=journal, metrics=metrics,
    )
    return scheduler, feeds, journal, metrics


def _assert_identical(r_a, r_b, chips):
    for chip in chips:
        a, b = r_a.reports[chip], r_b.reports[chip]
        assert a.alarms == b.alarms, chip
        assert a.windows_ingested == b.windows_ingested, chip
        assert a.gaps == b.gaps and a.out_of_order == b.out_of_order, chip


def test_batched_matches_sequential_with_link_faults(
    synthetic, fleet_streams
):
    ev, _ = synthetic
    seq, feeds_s, j_seq, m_seq = _build(
        per_session_evaluator(ev), fleet_streams
    )
    r_seq = seq.run(feeds_s)
    bat, feeds_b, j_bat, m_bat = _build(ev, fleet_streams)
    r_bat = bat.run(feeds_b)
    _assert_identical(r_seq, r_bat, fleet_streams)
    # Same journal stream, record for record (alarms in the same order
    # with the same seqs/separations).
    assert j_seq.events == j_bat.events
    assert any(e["kind"] == "alarm" for e in j_bat.events)
    counters = m_bat.snapshot()["counters"]
    assert counters["fleet.scoring.batched"] == r_bat.windows_ingested
    assert "fleet.scoring.sequential" not in counters
    assert "fleet.scoring.batched_fallback" not in counters
    counters = m_seq.snapshot()["counters"]
    assert counters["fleet.scoring.sequential"] == r_seq.windows_ingested
    assert counters["fleet.scoring.batched_fallback"] == 1


def test_batched_matches_sequential_under_drop_oldest(
    synthetic, fleet_streams
):
    # A slow consumer over depth-2 queues overflows deterministically;
    # the inline drains of evicted batches must route through the same
    # engine and stay bit-identical.
    ev, _ = synthetic
    kw = dict(policy="drop_oldest", queue_depth=2, consume_every=3,
              faults=None)
    seq, feeds_s, j_seq, _ = _build(
        per_session_evaluator(ev), fleet_streams, **kw
    )
    r_seq = seq.run(feeds_s)
    bat, feeds_b, j_bat, _ = _build(ev, fleet_streams, **kw)
    r_bat = bat.run(feeds_b)
    _assert_identical(r_seq, r_bat, fleet_streams)
    assert r_bat.reports["golden"].queue_dropped_windows > 0
    assert j_seq.events == j_bat.events


def test_batched_matches_sequential_across_sum_refresh(
    synthetic, fleet_streams, monkeypatch
):
    """Both engines hit the periodic running-sum refresh identically."""
    monkeypatch.setattr(RuntimeMonitor, "REFRESH_EVERY", 7)
    ev, _ = synthetic
    seq, feeds_s, j_seq, _ = _build(
        per_session_evaluator(ev), fleet_streams
    )
    r_seq = seq.run(feeds_s)
    bat, feeds_b, j_bat, _ = _build(ev, fleet_streams)
    r_bat = bat.run(feeds_b)
    _assert_identical(r_seq, r_bat, fleet_streams)
    assert j_seq.events == j_bat.events


def test_scoring_latency_lands_in_report(synthetic, fleet_streams):
    bat, feeds, _, _ = _build(synthetic[0], fleet_streams)
    result = bat.run(feeds)
    for chip in fleet_streams:
        assert result.reports[chip].scoring_p99_s > 0.0
    assert "score p99" in result.format()


def test_engine_rejects_mismatched_sessions(synthetic, fleet_streams):
    ev, _ = synthetic
    with pytest.raises(AnalysisError):
        BatchedFleetMonitor([])
    with pytest.raises(AnalysisError):
        BatchedFleetMonitor([
            MonitorSession("a", ev, window=16),
            MonitorSession("a", ev, window=16),
        ])


def test_pca_fitted_detector_is_scored_per_session(synthetic, fleet_streams):
    """A PCA projection is not row-blocking invariant: no dense scoring."""
    _, base = synthetic
    golden = base[None, :] + 0.05 * np.random.default_rng(7).normal(
        size=(128, base.size)
    )
    ev = copy.copy(synthetic[0])
    ev.detector = EuclideanDetector(n_components=8).fit(golden)
    assert ev.detector.uses_pca
    scheduler, feeds, _, metrics = _build(ev, fleet_streams, faults=None)
    assert scheduler._engine.dense is False
    result = scheduler.run(feeds)
    counters = metrics.snapshot()["counters"]
    assert counters["fleet.scoring.batched_fallback"] == 1
    assert "fleet.scoring.batched" not in counters

    for chip, traces in fleet_streams.items():
        session = scheduler.sessions[chip]
        monitor = RuntimeMonitor(
            ev, window=16, confirm=2, threshold=session.monitor.threshold
        )
        for batch in batches(TraceFeed(chip, traces, batch=8, seed=11)):
            monitor.observe_stream(batch.traces)
        assert result.reports[chip].alarms == monitor.alarms, chip
    assert any(r.alarms for r in result.reports.values())
