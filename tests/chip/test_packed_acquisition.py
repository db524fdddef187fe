"""Full-campaign lane independence of the simulator's lane words.

A wide acquisition packs many campaigns' lanes into each uint64 word.
Each lane must be *bit-identical* to the same campaign acquired on its
own at batch 1, one word per net: same traces and same recorded nets,
for every Trojan, at batches that fill part of a word, a whole word and
spill into a second one.  The batch-1 acquisitions themselves are held
to SHA-256 pins (``acquire/array/*/1`` in :mod:`tests.trace_pins`).  The
per-cycle float64 dense reference fold
(:class:`tests.chip.reference_fold.ReferenceFoldEngine`) is a numerical
baseline and is only required to agree to within 1e-5 of each trace's
peak.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.chip import AcquisitionEngine, EncryptionWorkload, GroupMember
from repro.chip.acquire import (
    FALL_CODE,
    FALL_CURRENT_FRACTION,
    RISE_CODE,
    _lookup_codes,
    acquisition_engine,
)
from repro.chip.chip import Chip
from repro.chip.scenario import simulation_scenario
from repro.experiments import clear_campaign_caches
from repro.logic.simulator import packed_words, unpack_bits
from tests.chip.reference_fold import ReferenceFoldEngine

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
N_CYCLES = 48


@pytest.fixture(scope="module")
def engine(chip, sim_scenario):
    return AcquisitionEngine(chip, sim_scenario)


def _assert_identical(a, b):
    assert set(a.traces) == set(b.traces)
    for name in a.traces:
        assert np.array_equal(a.traces[name], b.traces[name]), name
    assert set(a.recorded) == set(b.recorded)
    for name in a.recorded:
        assert np.array_equal(a.recorded[name], b.recorded[name]), name


def _assert_lanes_match_batch1(chip, engine, tag, lane_trojans, lanes):
    """Acquire one one-lane member per entry of *lane_trojans* (member
    ``i`` enables ``lane_trojans[i]``) in one pass; each lane in *lanes*
    must equal its member's batch-1 solo acquisition."""
    record = {"busy": chip.aes.busy}
    members = [
        GroupMember(
            name=f"lane{i}",
            workload=EncryptionWorkload(chip.aes, KEY),
            batch=1,
            trojan_enables=trojans,
            rng_role=f"lanes/{tag}/{i}",
        )
        for i, trojans in enumerate(lane_trojans)
    ]
    group = engine.acquire_group(members, n_cycles=N_CYCLES, record_nets=record)
    for lane in lanes:
        m = members[lane]
        solo = engine.acquire(
            EncryptionWorkload(chip.aes, KEY),
            n_cycles=N_CYCLES,
            batch=1,
            trojan_enables=m.trojan_enables,
            record_nets=record,
            rng_role=m.rng_role,
        )
        _assert_identical(group[m.name], solo)


@pytest.mark.parametrize("batch", (1, 8, 32, 33, 64, 65))
def test_golden_campaign_bit_identity(chip, engine, batch):
    """Noise, both receivers, recorded nets — the first, a middle and
    the last lane of a batch-*batch* pass each equal a batch-1 pass."""
    _assert_lanes_match_batch1(
        chip, engine, f"golden/{batch}", [()] * batch,
        sorted({0, batch // 2, batch - 1}),
    )


@pytest.mark.parametrize(
    "trojans", [("trojan1",), ("trojan2",), ("trojan3",), ("trojan4",), ("a2",)]
)
def test_trojan_campaign_bit_identity(chip, engine, trojans):
    """64 lanes in one word, the even ones enabling the Trojan: lanes 0
    and 32 (Trojan) and 63 (golden) each equal a batch-1 pass."""
    _assert_lanes_match_batch1(
        chip, engine, "+".join(trojans),
        [trojans if i % 2 == 0 else () for i in range(64)], (0, 32, 63),
    )


def test_lane_group_bit_identity(chip, engine):
    """Golden, Trojan 1 and A2 share one word, one lane each: every lane
    equals its member's batch-1 pass."""
    _assert_lanes_match_batch1(
        chip, engine, "group", [(), ("trojan1",), ("a2",)], (0, 1, 2)
    )


@pytest.mark.parametrize("batch", (1, 7, 8, 9, 32, 63, 64, 65, 130))
def test_lookup_block_equals_bool_formula(batch):
    """The byte-lookup code block holds exactly the codes ``FALL_CODE *
    (t ^ r) + RISE_CODE * r`` of the unpacked masks (in the ratio
    ``FALL_CURRENT_FRACTION``), read as the engine reads its buffers:
    rows ``lo:hi`` (``lo > 0``) of a partial block's first ``cycles``
    cycles of cycle-major ``(block, n_inst, nwords)`` lane words,
    written into the front of a wider buffer."""
    assert FALL_CODE / RISE_CODE == FALL_CURRENT_FRACTION
    rng = np.random.default_rng(batch)
    n_inst, block, cycles, lo, hi = 37, 5, 3, 11, 30
    k = hi - lo
    nwords = packed_words(batch)
    shape = (block, n_inst, nwords)
    top = np.iinfo(np.uint64).max
    tog = rng.integers(0, top, size=shape, dtype=np.uint64, endpoint=True)
    ris = tog & rng.integers(0, top, size=shape, dtype=np.uint64,
                             endpoint=True)
    tog_le, ris_le = tog.astype("<u8"), ris.astype("<u8")
    n_bytes = -(-batch // 8)
    buffer = np.full(block * n_inst * batch, np.nan)
    _lookup_codes(
        tog_le.view(np.uint8)[:cycles, lo:hi, :n_bytes],
        ris_le.view(np.uint8)[:cycles, lo:hi, :n_bytes],
        np.empty((cycles, k, n_bytes), dtype=np.uint16),
        buffer[: cycles * k * batch].reshape(cycles, k, batch),
    )

    t_bits = unpack_bits(tog[:cycles, lo:hi], batch)
    r_bits = unpack_bits(ris[:cycles, lo:hi], batch)
    expected = (FALL_CODE * (t_bits ^ r_bits) + RISE_CODE * r_bits).astype(
        np.float64
    )
    got = buffer[: cycles * k * batch]
    assert got.tobytes() == expected.tobytes()
    # Columns past the partial block are left alone.
    assert np.isnan(buffer[cycles * k * batch :]).all()


def test_reference_fold_tolerance(chip, sim_scenario, engine):
    """The float64 per-cycle dense reference fold agrees to 1e-5."""
    kw = dict(n_cycles=48, batch=64, receivers=("sensor",),
              include_noise=False, rng_role="packed-eq/reference")
    fast = engine.acquire(EncryptionWorkload(chip.aes, KEY), **kw)
    ref = ReferenceFoldEngine(chip, sim_scenario).acquire(
        EncryptionWorkload(chip.aes, KEY), **kw
    )
    assert not np.array_equal(fast.traces["sensor"], ref.traces["sensor"])
    for name in ref.traces:
        scale = np.max(np.abs(ref.traces[name])) or 1.0
        err = np.max(np.abs(fast.traces[name] - ref.traces[name])) / scale
        assert err < 1e-5, (name, err)


def test_engine_cache_releases_dropped_chip():
    """A chip only reachable through the engine cache must be collectable
    once campaign teardown calls :func:`clear_campaign_caches`."""
    chip = Chip.build(seed=987, trojans=())
    scenario = simulation_scenario()
    acquisition_engine(chip, scenario)  # pins chip via the lru_cache
    ref = weakref.ref(chip)
    del chip
    gc.collect()
    assert ref() is not None  # the cache really was the pin
    clear_campaign_caches()
    gc.collect()
    assert ref() is None
