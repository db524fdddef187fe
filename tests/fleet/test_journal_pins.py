"""Pinned fleet journal bytes: every ingest and scoring mode, one digest.

The fleet journal is a pure function of the seeded run that produced
it, so its flushed JSONL bytes can be pinned.  These tests run the
synthetic fleet of ``tests/fleet/conftest.py`` (a clean chip and a
Trojan-shifted chip) through :class:`~repro.fleet.FleetScheduler`
with link faults and a slow consumer, under each backpressure policy,
and require:

* replay and stream ingest, each with batched and sequential scoring,
  to flush **byte-identical** journals, and
* those bytes to hash to the single digest pinned per policy below.

A change that moves one journal byte — an alarm score, the event
order, a drop's sequence list — fails here.  The journal holds float
alarm statistics, so the pins are float64 results of one build: they
were taken with numpy 2.4, scipy 1.17 and OpenBLAS 0.3.31 on x86-64.
A different BLAS or FFT build may round differently and need them
re-taken from an unchanged commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fleet import (
    ArrayChunkSource,
    EventJournal,
    FaultSpec,
    FleetScheduler,
    MetricsRegistry,
    MonitorSession,
    StreamingTraceProducer,
    TraceFeed,
)

FAULTS = FaultSpec(drop=0.05, duplicate=0.05, reorder=0.1)

#: ``{policy: SHA-256 of the flushed journal}``.
PINNED = {
    "block": "5cac2fa652cce7b23c283800988588ef0106d71ec8455b72868023cdf31baa9d",
    "drop_oldest": "4408124376f4d26566fab06952296ec7b7d2d63f76bf796e2b164413d282cbeb",
}


def _journal_bytes(tmp_path, synthetic, streams, *, policy, ingest,
                   scoring) -> bytes:
    ev, _ = synthetic
    metrics = MetricsRegistry()
    journal = EventJournal(tmp_path / f"{policy}-{ingest}-{scoring}.jsonl")
    sessions = [
        MonitorSession(c, ev, window=16, confirm=2,
                       metrics=metrics, journal=journal)
        for c in streams
    ]
    producer = None
    sources = dict(streams)
    if ingest == "stream":
        n_windows = next(iter(streams.values())).shape[0]
        producer = StreamingTraceProducer(
            ArrayChunkSource(streams), list(streams),
            n_windows=n_windows, chunk=16, metrics=metrics,
        ).start()
        sources = {c: producer.source_for(c) for c in streams}
    feeds = [
        TraceFeed(c, sources[c], batch=8, faults=FAULTS, seed=11)
        for c in streams
    ]
    scheduler = FleetScheduler(
        sessions, queue_depth=2, policy=policy, workers=1,
        consume_every=3, scoring=scoring,
        journal=journal, metrics=metrics,
    )
    try:
        result = scheduler.run(feeds)
    finally:
        if producer is not None:
            producer.close()
    assert result.complete
    return journal.path.read_bytes()


@pytest.mark.parametrize("policy", sorted(PINNED))
def test_journal_bytes_are_pinned_across_modes(
    tmp_path, synthetic, streams, policy
):
    flushed = {
        (ingest, scoring): _journal_bytes(
            tmp_path, synthetic, streams,
            policy=policy, ingest=ingest, scoring=scoring,
        )
        for ingest in ("replay", "stream")
        for scoring in ("batched", "sequential")
    }
    reference = flushed[("replay", "batched")]
    for mode, data in flushed.items():
        assert data == reference, f"{policy}: {mode} journal differs"
    kinds = {
        e["kind"] for e in EventJournal.load(
            tmp_path / f"{policy}-replay-batched.jsonl"
        )
    }
    assert "alarm" in kinds
    assert ("drop" in kinds) == (policy == "drop_oldest")
    assert hashlib.sha256(reference).hexdigest() == PINNED[policy]
