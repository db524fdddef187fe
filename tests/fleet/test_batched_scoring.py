"""Dense fleet scoring must be bit-identical to per-session scoring.

The :class:`~repro.framework.batched.BatchedFleetMonitor` replaces the
per-chip feature/separation loop with one dense pass per tick; these
tests drive the same multi-chip fleets — link faults, backpressure
drops, checkpoint/resume — once densely and once through the
per-session reference evaluator, and require the exact same alarm
stream, stream accounting and journal tail.
"""

import json

import numpy as np
import pytest

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
from tests.fleet.conftest import per_session_evaluator

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


@pytest.mark.parametrize("first,second", [
    ("sequential", "batched"), ("batched", "sequential"),
])
def test_checkpoint_resume_across_scoring_modes(
    synthetic, fleet_streams, first, second
):
    """A checkpoint taken under one engine resumes under the other."""
    ev, _ = synthetic
    evaluators = {"batched": ev, "sequential": per_session_evaluator(ev)}
    ref, feeds, _, _ = _build(evaluators["sequential"], fleet_streams)
    r_ref = ref.run(feeds)

    part, feeds_p, _, _ = _build(evaluators[first], fleet_streams)
    r_part = part.run(feeds_p, max_ticks=5)
    assert not r_part.complete
    state = json.loads(json.dumps(part.state_dict()))

    metrics = MetricsRegistry()
    resumed = FleetScheduler.from_state(
        state, evaluators[second], journal=EventJournal(), metrics=metrics
    )
    feeds_r = [
        TraceFeed(c, fleet_streams[c], batch=8, faults=FAULTS, seed=11)
        for c in fleet_streams
    ]
    r_resumed = resumed.run(feeds_r)
    assert r_resumed.complete
    _assert_identical(r_ref, r_resumed, fleet_streams)
    fallback = metrics.snapshot()["counters"].get(
        "fleet.scoring.batched_fallback", 0
    )
    assert fallback == (second == "sequential")


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


def test_engine_adopts_mid_stream_state(synthetic, fleet_streams):
    """An engine built over part-way sessions continues bit-identically."""
    ev, _ = synthetic
    chips = tuple(fleet_streams)

    def sessions():
        return {c: MonitorSession(c, ev, window=16, confirm=2) for c in chips}

    batches = {
        c: list(TraceFeed(c, fleet_streams[c], batch=8, seed=11))
        for c in chips
    }
    n_head = 3

    ref = sessions()
    for c in chips:
        for b in batches[c]:
            ref[c].ingest(b)

    mid = sessions()
    for c in chips:
        for b in batches[c][:n_head]:
            mid[c].ingest(b)
    engine = BatchedFleetMonitor(list(mid.values()))
    for i in range(n_head, max(len(b) for b in batches.values())):
        engine.ingest_tick([
            (mid[c], batches[c][i]) for c in chips if i < len(batches[c])
        ])
    engine.sync_to_sessions()
    for c in chips:
        assert mid[c].monitor.alarms == ref[c].monitor.alarms, c
        assert mid[c].monitor.state_dict() == ref[c].monitor.state_dict(), c
