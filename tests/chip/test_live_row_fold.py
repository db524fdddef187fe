"""The live-row activity fold against the dense level-run oracle.

:meth:`ActivityAccumulator.record_all_blocks` folds only the rows that
toggled in some lane, reading them either from a dense block or from
the acquisition engine's lane words (:class:`~repro.chip.acquire.
_LaneColumns`).  Both must give the dense level-run fold of
:mod:`tests.logic.fold_oracle` byte for byte, and one fold's working
set must stay bounded by its chunk, not by the block.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.acquire import (
    FALL_CODE,
    RISE_CODE,
    _LaneColumns,
    _lane_code_lut,
)
from repro.logic import activity
from repro.logic.activity import ActivityAccumulator, FoldPlan
from repro.logic.simulator import pack_bits
from tests.logic.fold_oracle import level_run_fold


def _lane_words(toggles: np.ndarray, rising: np.ndarray) -> _LaneColumns:
    """The engine's column source over bool ``(cycles, insts, batch)``
    toggle and rise masks, packed into little-endian lane words."""
    batch = toggles.shape[-1]
    tog = np.ascontiguousarray(pack_bits(toggles).astype("<u8"))
    ris = np.ascontiguousarray(pack_bits(rising).astype("<u8"))
    return _LaneColumns(tog, ris, batch)


def _codes(toggles: np.ndarray, rising: np.ndarray) -> np.ndarray:
    """The bool backend's uint8 activity codes of the same masks."""
    codes = toggles * np.uint8(FALL_CODE)
    codes[rising] = RISE_CODE
    return codes


def _fold(accumulators, columns, n_cycles, batch) -> list[bytes]:
    for acc in accumulators:
        acc.clear()
    ActivityAccumulator.record_all_blocks(accumulators, columns, n_cycles, batch)
    return [acc.result().tobytes() for acc in accumulators]


@st.composite
def blocks(draw):
    """A level-ordered block of toggle and rise masks plus a fold plan.

    Levels may be empty; the live share of rows ranges from none to
    all; at batch > 64 some rows toggle in their second word only.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    batch = draw(st.sampled_from([1, 7, 64, 65, 130]))
    n_cycles = draw(st.integers(1, 3))
    n_inst = draw(st.integers(1, 40))
    n_levels = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]))
    n_acc = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(seed)
    used = rng.choice(n_levels, size=rng.integers(1, n_levels + 1),
                      replace=False)
    bins = rng.choice(used, size=n_inst)
    weights = rng.normal(size=(n_acc, n_inst)) * 10.0 ** rng.uniform(
        -3, 3, (n_acc, n_inst)
    )
    toggles = rng.random((n_cycles, n_inst, batch)) < density
    if batch > 64:
        upper = rng.random((n_cycles, n_inst)) < 0.3
        toggles[upper, :64] = False
        toggles[upper, rng.integers(64, batch)] = True
    rising = toggles & (rng.random(toggles.shape) < 0.5)
    plan = FoldPlan(weights, bins)
    rows = draw(st.permutations(range(n_acc)))
    accs = [ActivityAccumulator.from_plan(plan, r) for r in rows]
    order = plan.level_order
    return accs, toggles[:, order], rising[:, order]


@settings(max_examples=120, deadline=None)
@given(blocks(), st.sampled_from([1, 2, 5, 512]))
def test_live_row_fold_matches_level_run_oracle(case, fold_rows):
    """Dense and lane-word sources both match the oracle byte for byte,
    with shared-plan accumulators in any row order and chunks as small
    as one row per cycle (so segments span several chunks)."""
    accs, toggles, rising = case
    n_cycles, _, batch = toggles.shape
    codes = _codes(toggles, rising)
    want = [f.tobytes() for f in level_run_fold(accs, codes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(activity, "FOLD_ROWS", fold_rows)
        assert _fold(accs, codes, n_cycles, batch) == want
        lanes = _lane_words(toggles, rising)
        assert _fold(accs, lanes, n_cycles, batch) == want


def test_edge_blocks_match_oracle():
    """All-zero and all-live blocks, and a level longer than one chunk
    at the default chunk size."""
    rng = np.random.default_rng(7)
    n_inst, batch, n_cycles = 3000, 65, 2
    bins = rng.choice([0, 2, 3, 3, 3], size=n_inst)
    plan = FoldPlan(rng.normal(size=(3, n_inst)), bins)
    assert np.diff(plan.level_bounds).max() > activity.FOLD_ROWS * n_cycles
    accs = [ActivityAccumulator.from_plan(plan, r) for r in range(3)]
    shape = (n_cycles, n_inst, batch)
    for toggles in (np.zeros(shape, bool), np.ones(shape, bool)):
        rising = toggles & (rng.random(shape) < 0.5)
        codes = _codes(toggles, rising)
        want = [f.tobytes() for f in level_run_fold(accs, codes)]
        assert _fold(accs, codes, n_cycles, batch) == want
        lanes = _lane_words(toggles, rising)
        assert _fold(accs, lanes, n_cycles, batch) == want
    # A live row's idle lanes add -0.0 products of a negative weight,
    # yet every zero sum is +0.0, as in the oracle.
    neg = [ActivityAccumulator(-np.ones(n_inst), bins)]
    codes = np.zeros(shape, np.uint8)
    codes[0, 0, 0] = FALL_CODE
    _fold(neg, codes, n_cycles, batch)
    assert np.signbit(neg[0].result()).sum() == 1


def test_fold_working_set_is_bounded_by_the_chunk():
    """One fold of 16 receivers over an all-live 20 000-instance block
    of 8 cycles at batch 32 allocates a few chunks' worth, not the
    block's: its 160 000 live rows' weights alone would be 20 MB, and
    the fold needs about 4.5 MB."""
    rng = np.random.default_rng(20)
    n_inst, batch, n_cycles = 20_000, 32, 8
    plan = FoldPlan(rng.normal(size=(16, n_inst)),
                    rng.integers(0, 19, n_inst))
    accs = [ActivityAccumulator.from_plan(plan, r) for r in range(16)]
    toggles = np.ones((n_cycles, n_inst, batch), dtype=bool)
    lanes = _lane_words(toggles, toggles & (rng.random(toggles.shape) < 0.5))
    del toggles
    _lane_code_lut()  # built once per process, not by this fold
    tracemalloc.start()
    try:
        ActivityAccumulator.record_all_blocks(accs, lanes, n_cycles, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024, peak


def test_accumulators_share_the_read_only_plan():
    """An engine's accumulators index its one fold plan in place, and
    nothing in the plan can be written, so acquisitions on several
    threads may share it."""
    rng = np.random.default_rng(3)
    plan = FoldPlan(rng.normal(size=(2, 50)), rng.integers(0, 4, 50))
    acc = ActivityAccumulator.from_plan(plan, 1)
    assert np.shares_memory(acc.level_weights, plan.level_weights)
    assert acc.step == plan.steps[1]
    for arr in (plan.level_order, plan.level_bounds, plan.steps,
                plan.level_weights, acc.level_weights):
        assert not arr.flags.writeable
    solo = ActivityAccumulator(plan.weights[1], plan.bins)
    assert solo.level_weights.tobytes() == acc.level_weights.tobytes()
