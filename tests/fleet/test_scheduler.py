"""Tests for the fleet scheduler: backpressure, validation, early stop."""

import copy

import pytest

from repro.errors import ExperimentError
from repro.fleet import (
    EventJournal,
    FaultSpec,
    FleetScheduler,
    MetricsRegistry,
    MonitorSession,
    TraceFeed,
)
from tests.fleet.conftest import batches, per_session_evaluator

FAULTS = FaultSpec(drop=0.05, duplicate=0.05, reorder=0.1)


def _fleet(synthetic, streams, *, policy="block", queue_depth=4,
           consume_every=1, faults=None, journal=None):
    ev, _ = synthetic
    metrics = MetricsRegistry()
    journal = journal if journal is not None else EventJournal()
    sessions = [
        MonitorSession(c, ev, window=16, confirm=2,
                       metrics=metrics, journal=journal)
        for c in ("clean", "bad")
    ]
    feeds = [
        TraceFeed(c, streams[c], batch=8, faults=faults, seed=11)
        for c in ("clean", "bad")
    ]
    scheduler = FleetScheduler(
        sessions, queue_depth=queue_depth, policy=policy,
        consume_every=consume_every, journal=journal, metrics=metrics,
    )
    return scheduler, feeds, journal


def test_serial_block_run_ingests_everything(synthetic, streams):
    scheduler, feeds, journal = _fleet(synthetic, streams, faults=FAULTS)
    result = scheduler.run(feeds)
    assert result.complete
    for feed in feeds:
        report = result.reports[feed.chip_id]
        assert report.windows_ingested == feed.n_delivered
        assert report.feed_dropped == len(feed.dropped_seqs)
        assert report.queue_dropped_windows == 0
    assert not result.reports["clean"].time_alarm
    assert result.reports["bad"].time_alarm
    assert any(e["kind"] == "alarm" for e in journal.events)
    assert result.throughput > 0
    assert "ALARM" in result.format() and "link drops" in result.format()


def test_drop_oldest_policy_drops_loudly(synthetic, streams):
    # A slow consumer (one drain per 3 ticks) against depth-2 queues
    # must overflow deterministically.
    scheduler, feeds, journal = _fleet(
        synthetic, streams, policy="drop_oldest", queue_depth=2,
        consume_every=3,
    )
    result = scheduler.run(feeds)
    report = result.reports["clean"]
    assert report.queue_dropped_batches > 0
    assert report.queue_dropped_windows > 0
    assert report.windows_ingested + report.queue_dropped_windows == \
        report.windows_delivered
    drops = [e for e in journal.events if e["kind"] == "drop"]
    assert drops and all("seqs" in e for e in drops)
    assert result.metrics["counters"]["fleet.queue.dropped_windows"] > 0


def test_block_policy_never_loses_windows(synthetic, streams):
    scheduler, feeds, _ = _fleet(
        synthetic, streams, policy="block", queue_depth=2, consume_every=3
    )
    result = scheduler.run(feeds)
    for feed in feeds:
        assert (
            result.reports[feed.chip_id].windows_ingested
            == feed.n_delivered
        )
        assert result.reports[feed.chip_id].queue_dropped_windows == 0


@pytest.mark.parametrize("engine", ("dense", "per_session"))
def test_early_stop_then_rerun_continues_bit_identically(
    synthetic, streams, engine
):
    ev, _ = synthetic
    if engine == "per_session":
        ev = per_session_evaluator(ev)
    fleet = (ev, synthetic[1])

    # Uninterrupted reference run.
    scheduler, feeds, full_journal = _fleet(fleet, streams, faults=FAULTS)
    r_full = scheduler.run(feeds)
    assert r_full.complete

    # The same fleet stopped mid-stream, then run again on the same
    # scheduler and feeds.
    scheduler, feeds, journal = _fleet(fleet, streams, faults=FAULTS)
    r_part = scheduler.run(feeds, max_ticks=5)
    assert not r_part.complete and r_part.ticks == 5
    assert journal.events[-1]["kind"] == "early_stop"
    assert "PARTIAL" in r_part.format()
    r_rest = scheduler.run(feeds)
    assert r_rest.complete and r_rest.ticks == r_full.ticks

    for chip in ("clean", "bad"):
        rest, full = r_rest.reports[chip], r_full.reports[chip]
        assert rest.alarms == full.alarms
        assert rest.windows_ingested == full.windows_ingested
        assert rest.gaps == full.gaps
        assert rest.out_of_order == full.out_of_order
    assert r_full.reports["bad"].alarms
    assert [
        e for e in journal.events if e["kind"] != "early_stop"
    ] == full_journal.events


def test_scheduler_validation(synthetic, streams):
    ev, _ = synthetic
    session = MonitorSession("clean", ev, window=16)
    with pytest.raises(ExperimentError):
        FleetScheduler([])
    with pytest.raises(ExperimentError):
        FleetScheduler([session, MonitorSession("clean", ev, window=16)])
    with pytest.raises(ExperimentError):
        FleetScheduler([session], policy="drop_newest")
    for policy in ("block", "drop_oldest"):
        with pytest.raises(ExperimentError, match="queue depth"):
            FleetScheduler([session], queue_depth=0, policy=policy)
    with pytest.raises(ExperimentError):
        FleetScheduler([session], consume_every=0)
    for workers in (None, 0, 2, True, 1.0):
        with pytest.raises(ExperimentError, match="threaded ingestor"):
            FleetScheduler([session], workers=workers)
    for scoring in ("sequential", "vectorised"):
        with pytest.raises(ExperimentError, match="follows from the fleet"):
            FleetScheduler([session], scoring=scoring)
    FleetScheduler([session], scoring="batched")
    scheduler = FleetScheduler([session])
    with pytest.raises(ExperimentError):
        scheduler.run([TraceFeed("other", streams["clean"])])



@pytest.mark.parametrize("mixed", ("window", "detector"))
def test_fleet_the_dense_engine_cannot_hold_scores_per_session(
    synthetic, streams, mixed
):
    # Mixed sliding windows, or one fitted detector held as two
    # objects: the engine scores each session on its own, counted once.
    ev, _ = synthetic
    other = copy.copy(ev)
    if mixed == "detector":
        other.detector = copy.copy(ev.detector)
    windows = {"clean": 8, "bad": 16 if mixed == "window" else 8}
    evaluators = {"clean": ev, "bad": other}

    def sessions(**sinks):
        return [
            MonitorSession(c, evaluators[c], window=windows[c], confirm=2,
                           **sinks)
            for c in ("clean", "bad")
        ]

    metrics = MetricsRegistry()
    fleet = sessions(metrics=metrics, journal=EventJournal())
    feeds = [TraceFeed(c, streams[c], batch=8, seed=11) for c in streams]
    result = FleetScheduler(fleet, metrics=metrics).run(feeds)
    counters = metrics.snapshot()["counters"]
    assert counters["fleet.scoring.batched_fallback"] == 1
    assert counters["fleet.scoring.sequential"] == result.windows_ingested
    assert "fleet.scoring.batched" not in counters

    for session, feed in zip(sessions(), feeds):
        for batch in batches(feed):
            session.ingest(batch)
        report = result.reports[session.chip_id]
        assert report.alarms == session.monitor.alarms, session.chip_id
    assert not result.reports["clean"].time_alarm
    assert result.reports["bad"].time_alarm
