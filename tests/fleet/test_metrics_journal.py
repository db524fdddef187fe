"""Tests for the fleet metrics registry and the JSONL event journal."""

import json
import threading

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.fleet import EventJournal, MetricsRegistry, format_snapshot


def test_counter_and_gauge():
    m = MetricsRegistry()
    c = m.counter("windows")
    assert c.inc() == 1
    assert c.inc(5) == 6
    assert m.counter("windows") is c  # lazy, by name
    with pytest.raises(ExperimentError):
        c.inc(-1)
    g = m.gauge("depth")
    g.set(3)
    g.max(1)
    assert g.value == 3
    g.max(9)
    assert g.value == 9


def test_histogram_percentiles_match_numpy():
    m = MetricsRegistry()
    h = m.histogram("lat")
    samples = [float(x) for x in range(1, 101)]
    for s in samples:
        h.observe(s)
    summary = h.summary()
    assert summary["count"] == 100
    assert summary["sum"] == pytest.approx(sum(samples))
    assert summary["max"] == 100.0
    for q in (50, 95, 99):
        assert summary[f"p{q}"] == pytest.approx(
            float(np.percentile(samples, q))
        )
    assert h.percentile(50) == summary["p50"]


def test_empty_histogram_summary_is_zeroed():
    summary = MetricsRegistry().histogram("lat").summary()
    assert summary == {
        "count": 0, "sum": 0.0, "mean": 0.0, "max": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }


def test_timing_context_manager_lands_in_histogram():
    m = MetricsRegistry()
    with m.time("stage.x.seconds"):
        pass
    with m.time("stage.x.seconds"):
        pass
    summary = m.histogram("stage.x.seconds").summary()
    assert summary["count"] == 2
    assert summary["max"] >= 0.0


def test_snapshot_is_json_encodable_and_formats():
    m = MetricsRegistry()
    m.counter("a").inc(2)
    m.gauge("b").set(1.5)
    with m.time("c"):
        pass
    snap = m.snapshot()
    json.dumps(snap)  # must be plain data
    text = format_snapshot(snap)
    assert "a = 2" in text and "b = 1.5" in text and "p95" in text
    assert m.format() == text


def test_histogram_merge_matches_concatenated_reference():
    # The campaign pool merges per-worker histograms back into one;
    # quantiles after the merge must be exact over the union of raw
    # samples, not an approximation over per-worker summaries.
    rng = np.random.default_rng(7)
    a_samples = [float(x) for x in rng.normal(10.0, 3.0, size=137)]
    b_samples = [float(x) for x in rng.normal(50.0, 1.0, size=61)]
    m = MetricsRegistry()
    a = m.histogram("lat.a")
    for s in a_samples:
        a.observe(s)
    b = MetricsRegistry().histogram("lat.b")
    for s in b_samples:
        b.observe(s)
    a.merge(b)
    combined = a_samples + b_samples
    summary = a.summary()
    assert summary["count"] == len(combined)
    assert summary["sum"] == pytest.approx(sum(combined))
    for q in (50, 95, 99):
        assert summary[f"p{q}"] == float(np.percentile(combined, q))
    # Raw sample lists merge too (the state_dict form).
    c = MetricsRegistry().histogram("lat.c")
    c.merge(a_samples)
    c.merge(b_samples)
    assert c.summary() == summary
    # Merging empties is a no-op.
    c.merge([])
    c.merge(MetricsRegistry().histogram("empty"))
    assert c.summary() == summary


def test_registry_state_dict_merge_round_trip():
    src = MetricsRegistry()
    src.counter("windows").inc(7)
    src.gauge("depth").max(3.5)
    src.histogram("lat").observe(0.25)
    src.histogram("lat").observe(0.75)
    state = json.loads(json.dumps(src.state_dict()))  # wire-clean

    dst = MetricsRegistry()
    dst.counter("windows").inc(2)
    dst.gauge("depth").max(5.0)
    dst.histogram("lat").observe(0.5)
    dst.merge_state(state)
    snap = dst.snapshot()
    assert snap["counters"]["windows"] == 9
    assert snap["gauges"]["depth"] == 5.0  # gauges merge by max
    assert dst.histogram("lat").summary()["count"] == 3
    assert dst.histogram("lat").summary()["max"] == 0.75


def test_counter_is_thread_safe():
    m = MetricsRegistry()
    c = m.counter("n")

    def bump():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000


# ----------------------------------------------------------------------
def test_journal_record_order():
    j = EventJournal()
    j.record("campaign", chips=["a"])
    j.record("alarm", chip="a", seq=3)
    j.record("drop", chip="a", seqs=[4, 5])
    assert len(j) == 3
    assert [e["kind"] for e in j.events] == ["campaign", "alarm", "drop"]
    with pytest.raises(ExperimentError):
        j.record("")


def test_journal_events_carry_no_timestamps():
    # Bit-identical resume comparisons rely on journals being pure
    # functions of the seeded run.
    j = EventJournal()
    event = j.record("alarm", chip="a", separation=1.0)
    assert set(event) == {"kind", "chip", "separation"}


def test_journal_flush_and_load_round_trip(tmp_path):
    path = tmp_path / "journal" / "events.jsonl"
    j = EventJournal(path)
    j.record("alarm", chip="a", separation=0.123456789012345678)
    j.record("drop", chip="b", seqs=[1, 2])
    assert j.flush() == path
    loaded = EventJournal.load(path)
    assert loaded == j.events
    # Re-flush after more events rewrites the whole file atomically.
    j.record("spectral", chip="a", detected=True)
    j.flush()
    assert EventJournal.load(path) == j.events
    # No temp files left behind by the atomic-rename convention.
    assert [p.name for p in path.parent.iterdir()] == ["events.jsonl"]


def test_in_memory_journal_flush_is_noop():
    j = EventJournal()
    j.record("alarm", chip="a")
    assert j.flush() is None
