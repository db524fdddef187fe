"""Tests for the per-chip trace feeds and fault injection."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.fleet import FaultSpec, TraceFeed
from tests.fleet.conftest import batches

FAULTY = FaultSpec(drop=0.1, duplicate=0.1, reorder=0.15)


def _traces(n=60, length=32):
    # Row i filled with i, so a row identifies its source window.
    return np.tile(np.arange(n, dtype=np.float64)[:, None], (1, length))


def test_clean_feed_is_identity_replay():
    traces = _traces()
    feed = TraceFeed("c", traces, batch=8)
    assert feed.delivered_seqs == tuple(range(60))
    assert feed.dropped_seqs == ()
    assert feed.duplicated == 0 and feed.reordered == 0
    assert feed.n_batches == 8  # 7 full + 1 short batch
    rows = np.concatenate([b.traces for b in batches(feed)])
    np.testing.assert_array_equal(rows, traces)


def test_batch_structure_and_random_access():
    feed = TraceFeed("c", _traces(), batch=8, faults=FAULTY, seed=3)
    arrived = batches(feed)
    assert len(arrived) == feed.n_batches
    assert all(len(b) == 8 for b in arrived[:-1])
    for i, batch in enumerate(arrived):
        again = feed.batch_at(i)
        assert again.chip_id == "c"
        assert again.seqs == batch.seqs
        np.testing.assert_array_equal(again.traces, batch.traces)
        # Each delivered row really is the claimed source window.
        np.testing.assert_array_equal(
            batch.traces[:, 0], np.asarray(batch.seqs, dtype=np.float64)
        )


def test_fault_schedule_is_deterministic_per_chip_and_seed():
    a1 = TraceFeed("a", _traces(), faults=FAULTY, seed=7)
    a2 = TraceFeed("a", _traces(), faults=FAULTY, seed=7)
    b = TraceFeed("b", _traces(), faults=FAULTY, seed=7)
    a_reseed = TraceFeed("a", _traces(), faults=FAULTY, seed=8)
    assert a1.delivered_seqs == a2.delivered_seqs
    assert a1.dropped_seqs == a2.dropped_seqs
    assert a1.delivered_seqs != b.delivered_seqs
    assert a1.delivered_seqs != a_reseed.delivered_seqs


def test_fault_accounting_is_exact():
    traces = _traces(n=400)
    feed = TraceFeed("c", traces, faults=FAULTY, seed=1)
    delivered = feed.delivered_seqs
    # Dropped windows never appear; everything else appears >= once.
    assert set(feed.dropped_seqs).isdisjoint(delivered)
    assert set(delivered) | set(feed.dropped_seqs) == set(range(400))
    # Duplicates are exactly the extra deliveries.
    assert feed.duplicated == len(delivered) - len(set(delivered))
    assert feed.n_delivered == len(delivered)
    assert feed.dropped_seqs and feed.duplicated and feed.reordered


def test_drop_wins_over_duplicate():
    # With drop certain-ish and duplicate certain-ish, no dropped
    # window may sneak back in as a duplicate.
    feed = TraceFeed(
        "c",
        _traces(n=200),
        faults=FaultSpec(drop=0.5, duplicate=0.9),
        seed=2,
    )
    assert set(feed.dropped_seqs).isdisjoint(feed.delivered_seqs)


def test_reorder_swaps_adjacent_delivered_windows():
    feed = TraceFeed(
        "c", _traces(), faults=FaultSpec(reorder=0.5), seed=4
    )
    assert feed.reordered > 0
    assert feed.dropped_seqs == () and feed.duplicated == 0
    # Reordering permutes, never loses: same multiset as the source.
    assert sorted(feed.delivered_seqs) == list(range(60))


def test_fault_spec_validation():
    with pytest.raises(ExperimentError):
        FaultSpec(drop=1.0)
    with pytest.raises(ExperimentError):
        FaultSpec(duplicate=-0.1)


def test_feed_validation():
    with pytest.raises(ExperimentError):
        TraceFeed("c", _traces(), batch=0)
    with pytest.raises(ExperimentError):
        TraceFeed("c", np.zeros((0, 8)))
    feed = TraceFeed("c", _traces(), batch=8)
    with pytest.raises(ExperimentError):
        feed.batch_at(feed.n_batches)
