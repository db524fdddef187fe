"""Tests for activity recorders and netlist statistics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.logic import (
    ActivityAccumulator,
    CompiledNetlist,
    NetlistBuilder,
    ToggleCountRecorder,
    netlist_stats,
)
from repro.logic.activity import FOLD_ROWS, MAX_ACTIVITY_CODE
from repro.logic.simulator import PackedState, lane_counts, pack_bits
from tests.logic.dense_columns import DenseColumns
from tests.logic.recorders import TraceRecorder, record, record_all, solo


def _counter_sim():
    b = NetlistBuilder("cnt", group="core")
    q = b.counter(3)
    return CompiledNetlist(b.build())


def test_toggle_counts_of_counter():
    sim = _counter_sim()
    state = sim.reset()
    rec = ToggleCountRecorder(sim)
    for _ in range(8):
        rec.record(sim.step(state), state.batch)
    # The LSB flop toggles on every one of the 8 cycles.
    assert rec.counts.max() == 8
    assert rec.cycles == 8


@pytest.mark.parametrize("batch", (2, 5, 64, 70))
def test_toggle_counts_ignore_set_padding_lanes(batch):
    """Packed toggles are counted over the batch's lanes only: padding
    bits set in the words change nothing."""
    sim = _counter_sim()
    state = sim.reset(batch=batch)
    assert isinstance(state, PackedState)
    rng = np.random.default_rng(batch)
    bits = rng.integers(0, 2, size=(sim.num_instances, batch)).astype(bool)
    padding = ~pack_bits(np.ones(batch, dtype=bool))
    rec = ToggleCountRecorder(sim)
    rec.record(pack_bits(bits) | padding, batch)
    assert np.array_equal(rec.counts, bits.sum(axis=1))
    assert np.array_equal(
        lane_counts(pack_bits(bits) | padding, batch), bits.sum(axis=1)
    )


def test_packed_toggle_counts_match_single_lanes():
    """A packed run's toggle totals equal the sum of batch-1 runs."""
    sim = _counter_sim()
    packed = ToggleCountRecorder(sim)
    state = sim.reset(batch=3)
    for _ in range(8):
        packed.record(sim.step(state), state.batch)
    single = ToggleCountRecorder(sim)
    for _ in range(3):
        state = sim.reset(batch=1)
        for _ in range(8):
            single.record(sim.step(state), state.batch)
    assert np.array_equal(packed.counts, single.counts)


def test_activity_accumulator_weighted_bins():
    weights = np.array([1.0, 2.0, 4.0])
    bins = np.array([0, 1, 1])
    acc = solo(weights, bins)
    toggles = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
    record(acc, toggles)
    out = acc.result()
    assert out.shape == (1, 2, 2)
    # bin0 = w0*t0; bin1 = w1*t1 + w2*t2
    assert np.allclose(out[0, 0], [1.0, 0.0])
    assert np.allclose(out[0, 1], [2.0, 6.0])


def test_activity_accumulator_accepts_float_matrices():
    acc = solo(np.ones(2), np.zeros(2, dtype=int))
    record(acc, np.array([[0.35, 1.0], [1.0, 0.35]]))
    assert np.allclose(acc.result()[0, 0], [1.35, 1.35])


def test_activity_accumulator_validates_shapes():
    with pytest.raises(SimulationError):
        solo(np.ones(3), np.zeros(2, dtype=int))
    acc = solo(np.ones(2), np.zeros(2, dtype=int))
    with pytest.raises(SimulationError):
        record(acc, np.zeros((3, 1), dtype=bool))
    with pytest.raises(SimulationError):
        acc.result()  # nothing recorded


def test_activity_accumulator_clear():
    acc = solo(np.ones(1), np.zeros(1, dtype=int))
    record(acc, np.ones((1, 1), dtype=bool))
    acc.clear()
    with pytest.raises(SimulationError):
        acc.result()  # nothing recorded since


def _fold_case(n_inst=1300, n_cycles=5, batch=7, seed=3):
    """Random weights over levels 0..5 with level 2 empty and level 4
    longer than one FOLD_ROWS run, plus bool toggle matrices."""
    rng = np.random.default_rng(seed)
    bins = rng.choice([0, 1, 3, 4, 4, 4, 5], size=n_inst)
    weights = rng.normal(size=n_inst) * 10.0 ** rng.uniform(-3, 3, n_inst)
    toggles = rng.random((n_cycles, n_inst, batch)) < 0.2
    return weights, bins, toggles


def test_fold_paths_agree_bit_for_bit():
    weights, bins, toggles = _fold_case()
    assert np.bincount(bins)[4] > FOLD_ROWS
    n_cycles, _, batch = toggles.shape
    single = solo(weights, bins)
    for t in toggles:
        record(single, t)
    group = [solo(w, bins) for w in (weights[::-1], weights)]
    for t in toggles:
        record_all(group, t)
    blocked = [solo(w, bins) for w in (weights, weights * 3)]
    ActivityAccumulator.record_all_blocks(
        blocked,
        DenseColumns(toggles[:, blocked[0].level_order]),
        n_cycles,
        batch,
    )
    out = single.result()
    assert out.shape == (n_cycles, 6, batch)
    assert out.tobytes() == group[1].result().tobytes()
    assert out.tobytes() == blocked[0].result().tobytes()


def test_fold_is_exact_for_integer_activity():
    weights, bins, toggles = _fold_case(seed=4)
    codes = toggles * np.int64(MAX_ACTIVITY_CODE)
    acc = solo(weights, bins)
    for c in codes:
        record(acc, c)
    w_int = np.rint(weights / acc.step).astype(np.int64)
    for k, c in enumerate(codes):
        for level in range(acc.num_bins):
            rows = bins == level
            exact = (w_int[rows, None] * c[rows]).sum(axis=0)
            assert np.array_equal(acc.result()[k, level], exact * acc.step)
    # The rounding moves no weight by more than half a step.
    assert np.max(np.abs(w_int * acc.step - weights)) <= acc.step / 2


def test_fold_empty_level_is_zero():
    acc = solo(np.array([1.0, 2.0, 4.0]), np.array([0, 2, 2]))
    record(acc, np.array([[1, 1], [1, 0], [0, 1]], dtype=bool))
    out = acc.result()
    assert out.shape == (1, 3, 2)
    assert np.array_equal(out[0], [[1.0, 1.0], [0.0, 0.0], [2.0, 4.0]])


def test_fold_single_instance():
    acc = solo(np.array([0.3]), np.array([2]))
    record(acc, np.array([[1, 0, 1]], dtype=bool))
    out = acc.result()
    assert out.shape == (1, 3, 3)
    assert np.array_equal(out[0, :2], np.zeros((2, 3)))
    assert np.allclose(out[0, 2], [0.3, 0.0, 0.3], rtol=1e-12, atol=0)


def test_fold_zero_instances():
    acc = solo(np.empty(0), np.empty(0, dtype=int))
    record(acc, np.zeros((0, 4), dtype=bool))
    assert acc.result().shape == (1, 0, 4)


def test_fold_requires_shared_bins():
    weights = np.ones(4)
    a = solo(weights, np.array([0, 0, 1, 1]))
    b = solo(weights, np.array([0, 1, 1, 1]))
    toggles = np.ones((4, 2), dtype=bool)
    with pytest.raises(SimulationError, match="share delay bins"):
        record_all([a, b], toggles)
    with pytest.raises(SimulationError, match="share delay bins"):
        ActivityAccumulator.record_all_blocks(
            [a, b], DenseColumns(toggles[None]), 1, 2
        )
    with pytest.raises(SimulationError, match="column block"):
        ActivityAccumulator.record_all_blocks(
            [a], DenseColumns(toggles[None]), 2, 2
        )


def test_trace_recorder_history():
    sim = _counter_sim()
    state = sim.reset()
    rec = TraceRecorder(sim)
    for _ in range(4):
        rec.record(sim.step(state))
    hist = rec.history()
    assert hist.shape == (4, sim.num_instances, 1)


def test_trace_recorder_limit():
    sim = _counter_sim()
    rec = TraceRecorder(sim, limit_cycles=1)
    state = sim.reset()
    rec.record(sim.step(state))
    with pytest.raises(SimulationError):
        rec.record(sim.step(state))


def test_netlist_stats_groups_and_percentages():
    b = NetlistBuilder("die", group="aes")
    a = b.input("a")
    for _ in range(10):
        b.inv(a)
    with b.in_group("trojan"):
        b.inv(a)
    stats = netlist_stats(b.build())
    assert stats.groups["aes"].gate_count == 10
    assert stats.groups["trojan"].gate_count == 1
    assert stats.gate_percentage("trojan", "aes") == pytest.approx(10.0)
    assert 0 < stats.area_percentage("trojan", "aes") <= 100
