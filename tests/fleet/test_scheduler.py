"""Tests for the fleet scheduler: backpressure, validation, checkpointing."""

import json

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


def test_checkpoint_resume_is_bit_identical(synthetic, streams):
    ev, _ = synthetic

    def build(journal):
        return _fleet(synthetic, streams, faults=FAULTS, journal=journal)

    # Uninterrupted reference run.
    full_journal = EventJournal()
    scheduler, feeds, _ = build(full_journal)
    r_full = scheduler.run(feeds)
    assert r_full.complete

    # Same fleet, stopped mid-stream...
    part_journal = EventJournal()
    scheduler, feeds, _ = build(part_journal)
    r_part = scheduler.run(feeds, max_ticks=5)
    assert not r_part.complete
    assert part_journal.events[-1]["kind"] == "checkpoint"
    events_before_resume = len(part_journal.events) - 1  # sans checkpoint

    # ...checkpointed through an actual JSON round trip...
    state = json.loads(json.dumps(scheduler.state_dict()))

    # ...and resumed against identically rebuilt feeds.
    resume_journal = EventJournal()
    metrics = MetricsRegistry()
    resumed = FleetScheduler.from_state(
        state, ev, journal=resume_journal, metrics=metrics
    )
    feeds2 = [
        TraceFeed(c, streams[c], batch=8, faults=FAULTS, seed=11)
        for c in ("clean", "bad")
    ]
    r_resumed = resumed.run(feeds2)
    assert r_resumed.complete

    # Acceptance: same alarms (indices, separations, thresholds) and
    # the resumed journal equals the uninterrupted journal's tail.
    for chip in ("clean", "bad"):
        assert (
            r_resumed.reports[chip].alarms == r_full.reports[chip].alarms
        )
        assert (
            r_resumed.reports[chip].windows_ingested
            == r_full.reports[chip].windows_ingested
        )
        assert r_resumed.reports[chip].gaps == r_full.reports[chip].gaps
        assert (
            r_resumed.reports[chip].out_of_order
            == r_full.reports[chip].out_of_order
        )
    assert (
        full_journal.events[events_before_resume:] == resume_journal.events
    )


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
    scheduler = FleetScheduler([session])
    with pytest.raises(ExperimentError):
        scheduler.run([TraceFeed("other", streams["clean"])])

