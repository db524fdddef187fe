"""Streaming ingest must be bit-identical to replay.

``--ingest=stream`` swaps prematerialised campaign matrices for a
:class:`~repro.fleet.producer.StreamingTraceProducer` generating
chunks on a background thread while the scheduler scores.  The feed's
delivery schedule is a pure function of ``(n_windows, faults, seed,
chip_id)`` — no trace bytes involved — so the streamed run must
reproduce the replay run exactly: same alarms, same accounting
counters, same journal events.

Identity scope: journal events, per-chip reports, and every counter
except the ``stage.*`` timing ones plus the ``producer.*`` instruments
and the ``fleet.ttfv.seconds`` gauge, which only exist on the streamed
side and measure wall clock, not campaign content.
"""

import contextlib

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.fleet import (
    ArrayChunkSource,
    ChunkPlan,
    EventJournal,
    FaultSpec,
    FleetScheduler,
    MetricsRegistry,
    MonitorSession,
    StreamingTraceProducer,
    TraceFeed,
    chunk_role,
)
from repro.fleet.campaign import StreamingOneShot
from tests.fleet.conftest import per_session_evaluator

FAULTS = FaultSpec(drop=0.05, duplicate=0.05, reorder=0.1)

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


def _producer(streams, *, chunk=16, metrics=None, on_chunk=None,
              prefetch=2):
    n_windows = next(iter(streams.values())).shape[0]
    return StreamingTraceProducer(
        ArrayChunkSource(streams),
        list(streams),
        n_windows=n_windows,
        chunk=chunk,
        prefetch=prefetch,
        metrics=metrics,
        on_chunk=on_chunk,
    )


@contextlib.contextmanager
def _running(streams, **kwargs):
    producer = _producer(streams, **kwargs).start()
    try:
        yield producer
    finally:
        producer.close()


def _build(cls, synthetic, streams, *, ingest="replay", chunk=16,
           policy="block", queue_depth=4, consume_every=1,
           faults=FAULTS, per_session=False, **kw):
    """Scheduler + feeds; feeds pull from a live producer when asked."""
    ev, _ = synthetic
    if per_session:
        ev = per_session_evaluator(ev)
    metrics = MetricsRegistry()
    journal = EventJournal()
    sessions = [
        MonitorSession(c, ev, window=16, confirm=2,
                       metrics=metrics, journal=journal)
        for c in streams
    ]
    producer = None
    if ingest == "stream":
        producer = _producer(streams, chunk=chunk, metrics=metrics).start()
        sources = {c: producer.source_for(c) for c in streams}
    else:
        sources = dict(streams)
    feeds = [
        TraceFeed(c, sources[c], batch=8, faults=faults, seed=11)
        for c in streams
    ]
    if cls is FleetScheduler:
        kw.setdefault("workers", 1)
    scheduler = cls(
        sessions, queue_depth=queue_depth, policy=policy,
        consume_every=consume_every,
        journal=journal, metrics=metrics, **kw,
    )
    return scheduler, feeds, journal, metrics, producer


def _clean_counters(metrics):
    return {
        k: v for k, v in metrics.snapshot()["counters"].items()
        if not k.startswith(("stage.", "producer."))
    }


def _assert_identical(r_a, r_b, chips):
    for chip in chips:
        a, b = r_a.reports[chip], r_b.reports[chip]
        assert a.alarms == b.alarms, chip
        assert a.windows_ingested == b.windows_ingested, chip
        assert a.gaps == b.gaps and a.out_of_order == b.out_of_order, chip
        assert a.queue_dropped_windows == b.queue_dropped_windows, chip


# -- the chunk plan ----------------------------------------------------

def test_chunk_plan_bounds_and_lookup():
    plan = ChunkPlan(n_windows=100, chunk=32)
    assert plan.n_chunks == 4
    assert plan.bounds(0) == (0, 32)
    assert plan.bounds(3) == (96, 100)  # short tail chunk
    assert plan.chunk_of(0) == 0
    assert plan.chunk_of(95) == 2
    assert plan.chunk_of(99) == 3
    # Clamped at both ends: sequences past the stream (duplicates of
    # the tail) and negatives never index out of range.
    assert plan.chunk_of(10_000) == 3
    assert plan.chunk_of(-1) == 0
    with pytest.raises(ExperimentError, match="out of range"):
        plan.bounds(4)
    with pytest.raises(ExperimentError, match=">= 1"):
        ChunkPlan(n_windows=0, chunk=8)
    with pytest.raises(ExperimentError, match=">= 1"):
        ChunkPlan(n_windows=8, chunk=0)


def test_chunk_role_keeps_legacy_name_for_single_chunk_plans():
    # A plan whose one chunk covers the campaign must reproduce the
    # pre-streaming RNG role exactly — old cached campaigns stay valid.
    whole = ChunkPlan(n_windows=64, chunk=64)
    assert chunk_role("fleet/ed/golden", whole, 0) == "fleet/ed/golden"
    split = ChunkPlan(n_windows=64, chunk=16)
    assert chunk_role("fleet/ed/golden", split, 2) == \
        "fleet/ed/golden/chunk2"


def test_array_chunk_source_validation():
    with pytest.raises(ExperimentError, match="at least one chip"):
        ArrayChunkSource({})
    with pytest.raises(ExperimentError, match="window count"):
        ArrayChunkSource({
            "a": np.zeros((4, 8)), "b": np.zeros((5, 8)),
        })


# -- the producer ------------------------------------------------------

def test_producer_serves_exact_rows_and_read_only_views(fleet_rng):
    streams = {"a": fleet_rng.normal(size=(40, 12)),
               "b": fleet_rng.normal(size=(40, 12))}
    with _running(streams, chunk=16) as producer:
        # A contiguous in-chunk request comes back as a read-only view.
        view = producer.rows("a", np.arange(4, 9))
        assert not view.flags.writeable
        assert np.array_equal(view, streams["a"][4:9])
        # A chunk-straddling request is gathered across chunks.
        seqs = np.array([14, 15, 16, 17, 33])
        got = producer.rows("b", seqs)
        assert np.array_equal(got, streams["b"][seqs])


def test_producer_frees_passed_chunks_and_regenerates_on_demand(
    fleet_rng
):
    streams = {"a": fleet_rng.normal(size=(48, 8)),
               "b": fleet_rng.normal(size=(48, 8))}
    with _running(streams, chunk=16, prefetch=1) as producer:
        producer.join()
        assert sorted(producer._chunks) == [0, 1, 2]
        # One chip moving past a chunk is not enough to free it...
        producer.advance("a", 16)
        assert 0 in producer._chunks
        # ...the *fleet minimum* watermark is.
        producer.advance("b", 20)
        assert 0 not in producer._chunks
        producer.advance("a", 48)
        producer.advance("b", 48)
        assert not producer._chunks
        # Requests below a freed chunk (the post-run one-shot path)
        # regenerate it on demand — chunks are pure functions of
        # (source, index), so the bytes are identical.
        again = producer.rows("a", np.arange(0, 16))
        assert np.array_equal(again, streams["a"][:16])


def test_producer_demand_runs_past_the_prefetch_window(fleet_rng):
    # A consumer blocked on a chunk beyond watermark + prefetch
    # (reordered/duplicated deliveries can reference ahead) must raise
    # demand instead of deadlocking on the look-ahead gate.
    streams = {"a": fleet_rng.normal(size=(96, 8))}
    with _running(streams, chunk=8, prefetch=1) as producer:
        rows = producer.rows("a", np.array([88]))  # last chunk
        assert np.array_equal(rows, streams["a"][88:89])


def test_producer_surfaces_generation_failures():
    class Exploding:
        def generate(self, index, lo, hi):
            if index >= 1:
                raise RuntimeError("acquisition backend fell over")
            return {"a": np.zeros((8, 4))}

    producer = StreamingTraceProducer(
        Exploding(), ["a"], n_windows=32, chunk=8
    ).start()
    try:
        with pytest.raises(ExperimentError, match="producer failed"):
            producer.rows("a", np.array([20]))
    finally:
        producer.close()


def test_producer_requires_start_and_validates_arguments(fleet_rng):
    streams = {"a": fleet_rng.normal(size=(32, 8))}
    producer = _producer(streams, chunk=8)
    with pytest.raises(ExperimentError, match="not started"):
        producer.rows("a", np.array([0]))
    with pytest.raises(ExperimentError, match="unknown chip"):
        producer.source_for("nope")
    with pytest.raises(ExperimentError, match="prefetch"):
        _producer(streams, chunk=8, prefetch=0)


def test_producer_metrics_and_cursor(fleet_rng):
    metrics = MetricsRegistry()
    streams = {"a": fleet_rng.normal(size=(40, 8))}
    with _running(streams, chunk=16, metrics=metrics) as producer:
        producer.join()
        counters = metrics.snapshot()["counters"]
        assert counters["producer.chunks"] == 3
        assert counters["producer.windows"] == 40
        # Nothing consumed yet: the cursor (the first chunk any future
        # delivery needs) still points at the first chunk; passing the
        # watermark over it moves the cursor and frees the chunk.
        assert producer._min_needed_chunk() == 0
        producer.advance("a", 16)
        assert producer._min_needed_chunk() == 1
        assert sorted(producer._chunks) == [1, 2]


def test_on_chunk_fires_once_per_chunk_in_order(fleet_rng):
    streams = {"a": fleet_rng.normal(size=(40, 8))}
    seen = []
    with _running(
        streams, chunk=16,
        on_chunk=lambda i, lo, hi, data: seen.append((i, lo, hi)),
    ) as producer:
        producer.join()
        producer.advance("a", 40)
        # Regeneration (a gather below the freed watermark) must NOT
        # re-fire the hook — the accumulator would double-count.
        producer.rows("a", np.arange(0, 16))
        producer.join()
    assert seen == [(0, 0, 16), (1, 16, 32), (2, 32, 40)]


# -- stream vs replay bit-identity -------------------------------------

def test_stream_matches_replay_serial_with_link_faults(
    synthetic, fleet_streams
):
    ref, feeds_r, j_ref, m_ref, _ = _build(
        FleetScheduler, synthetic, fleet_streams, ingest="replay"
    )
    r_ref = ref.run(feeds_r)
    sched, feeds_s, j_st, m_st, producer = _build(
        FleetScheduler, synthetic, fleet_streams, ingest="stream"
    )
    try:
        r_st = sched.run(feeds_s)
    finally:
        producer.close()
    _assert_identical(r_ref, r_st, fleet_streams)
    assert any(e["kind"] == "alarm" for e in j_st.events)
    assert j_ref.events == j_st.events
    assert _clean_counters(m_ref) == _clean_counters(m_st)
    # The streamed side reports its pipeline; the replay side has no
    # producer at all.
    assert m_st.snapshot()["counters"]["producer.chunks"] == 6
    assert "producer.chunks" not in m_ref.snapshot()["counters"]
    # First alarm fired mid-stream: TTFV exists and is positive.
    assert m_st.snapshot()["gauges"]["fleet.ttfv.seconds"] > 0


def test_stream_matches_replay_sequential_scoring(
    synthetic, fleet_streams
):
    ref, feeds_r, j_ref, _, _ = _build(
        FleetScheduler, synthetic, fleet_streams,
        ingest="replay", per_session=True,
    )
    r_ref = ref.run(feeds_r)
    sched, feeds_s, j_st, _, producer = _build(
        FleetScheduler, synthetic, fleet_streams,
        ingest="stream", per_session=True,
    )
    try:
        r_st = sched.run(feeds_s)
    finally:
        producer.close()
    _assert_identical(r_ref, r_st, fleet_streams)
    assert j_ref.events == j_st.events


def test_all_clear_stream_creates_no_ttfv_instrument(synthetic):
    # Snapshot parity: a run that never alarms must not grow a zeroed
    # TTFV gauge the replay side lacks.
    _, base = synthetic
    rng = np.random.default_rng(3)
    streams = {
        "golden": base[None, :]
        + 0.05 * rng.normal(size=(48, base.size))
    }
    sched, feeds, _, metrics, producer = _build(
        FleetScheduler, synthetic, streams, ingest="stream", faults=None
    )
    try:
        result = sched.run(feeds)
    finally:
        producer.close()
    assert not result.reports["golden"].alarms
    assert "fleet.ttfv.seconds" not in metrics.snapshot()["gauges"]


# -- early stop, then the rest of the stream -------------------------

def test_stream_early_stop_then_rerun_continues(synthetic, fleet_streams):
    """A stopped streamed run continues on the same scheduler and
    producer; the whole stream matches an uninterrupted replay."""
    ref, feeds_r, j_ref, _, _ = _build(
        FleetScheduler, synthetic, fleet_streams, ingest="replay"
    )
    r_ref = ref.run(feeds_r)

    sched, feeds_s, j_st, _, producer = _build(
        FleetScheduler, synthetic, fleet_streams, ingest="stream"
    )
    try:
        r_part = sched.run(feeds_s, max_ticks=5)
        assert not r_part.complete
        # The stop left the producer mid-campaign.
        assert 0 < producer._min_needed_chunk() < ChunkPlan(96, 16).n_chunks
        r_rest = sched.run(feeds_s)
    finally:
        producer.close()
    assert r_rest.complete
    _assert_identical(r_ref, r_rest, fleet_streams)
    assert [
        e for e in j_st.events if e["kind"] != "early_stop"
    ] == j_ref.events


# -- the streaming one-shot accumulator --------------------------------

def test_streaming_oneshot_matches_whole_matrix_evaluation(
    synthetic, fleet_streams
):
    ev, _ = synthetic
    detector = ev.detector
    feeds = {
        c: TraceFeed(c, fleet_streams[c], batch=8, faults=FAULTS,
                     seed=11)
        for c in fleet_streams
    }
    acc = StreamingOneShot(detector)
    acc.set_weights({
        c: np.bincount(
            np.asarray(f.delivered_seqs, dtype=np.intp), minlength=96
        )
        for c, f in feeds.items()
    })
    producer = _producer(fleet_streams, chunk=16, on_chunk=acc).start()
    try:
        producer.join()
    finally:
        producer.close()
    for chip_id, feed in feeds.items():
        delivered = np.asarray(feed.delivered_seqs, dtype=np.intp)
        expect = detector.evaluate(feed.source.gather(delivered))
        got = acc.report(chip_id)
        # Integer delivery counts divided identically: exact.
        assert got.exceed_fraction == expect.exceed_fraction, chip_id
        # Float accumulation order differs (chunked vs whole-matrix):
        # statistics agree to ~1 ulp, verdict booleans exactly.
        assert got.mean_distance == pytest.approx(
            expect.mean_distance, rel=1e-12
        )
        assert got.separation == pytest.approx(
            expect.separation, rel=1e-12
        )
        assert got.detected == expect.detected, chip_id


def test_streaming_oneshot_rejects_unseen_chips_and_unfitted(synthetic):
    ev, _ = synthetic
    acc = StreamingOneShot(ev.detector)
    with pytest.raises(ExperimentError, match="no windows"):
        acc.report("ghost")
    from repro.analysis.euclidean import EuclideanDetector
    with pytest.raises(ExperimentError, match="fitted"):
        StreamingOneShot(EuclideanDetector())
