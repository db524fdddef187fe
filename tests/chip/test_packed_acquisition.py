"""Full-campaign equivalence of the packed simulation backend.

The packed backend must be *bit-identical* to the bool backend — same
traces, same recorded nets, for every Trojan — because both feed the
same activity codes to the same exact level fold.  The per-cycle
float64 dense reference fold
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
from repro.logic.simulator import BACKEND_ENV_VAR, packed_words, unpack_bits
from tests.chip.reference_fold import ReferenceFoldEngine

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def engine(chip, sim_scenario):
    return AcquisitionEngine(chip, sim_scenario)


def _campaign(chip, engine, backend, monkeypatch, *, batch, trojans=(),
              n_cycles=48, **kw):
    monkeypatch.setenv(BACKEND_ENV_VAR, backend)
    wl = EncryptionWorkload(chip.aes, KEY)
    return engine.acquire(
        wl,
        n_cycles=n_cycles,
        batch=batch,
        trojan_enables=trojans,
        record_nets={"busy": chip.aes.busy},
        rng_role=f"packed-eq/{'+'.join(trojans) or 'golden'}",
        **kw,
    )


def _assert_identical(a, b):
    assert set(a.traces) == set(b.traces)
    for name in a.traces:
        assert np.array_equal(a.traces[name], b.traces[name]), name
    assert set(a.recorded) == set(b.recorded)
    for name in a.recorded:
        assert np.array_equal(a.recorded[name], b.recorded[name]), name


@pytest.mark.parametrize("batch", (1, 8, 32, 33, 64, 65))
def test_golden_campaign_bit_identity(chip, engine, monkeypatch, batch):
    """Noise, both receivers, recorded nets — exact equality end to end."""
    packed = _campaign(chip, engine, "packed", monkeypatch, batch=batch)
    boolr = _campaign(chip, engine, "bool", monkeypatch, batch=batch)
    _assert_identical(packed, boolr)


@pytest.mark.parametrize(
    "trojans", [("trojan1",), ("trojan2",), ("trojan3",), ("trojan4",), ("a2",)]
)
def test_trojan_campaign_bit_identity(chip, engine, monkeypatch, trojans):
    packed = _campaign(chip, engine, "packed", monkeypatch,
                       batch=64, trojans=trojans)
    boolr = _campaign(chip, engine, "bool", monkeypatch,
                      batch=64, trojans=trojans)
    _assert_identical(packed, boolr)


def test_lane_group_bit_identity(chip, engine, monkeypatch):
    """Three 5-lane members share one word: packed equals bool per member."""
    def group(backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        members = [
            GroupMember(
                name=name,
                workload=EncryptionWorkload(chip.aes, KEY),
                batch=5,
                trojan_enables=trojans,
                rng_role=f"packed-eq/group/{name}",
            )
            for name, trojans in (
                ("golden", ()), ("t1", ("trojan1",)), ("a2", ("a2",))
            )
        ]
        return engine.acquire_group(
            members, n_cycles=48, record_nets={"busy": chip.aes.busy}
        )

    packed, boolr = group("packed"), group("bool")
    assert list(packed) == list(boolr)
    for name in packed:
        _assert_identical(packed[name], boolr[name])


@pytest.mark.parametrize("batch", (1, 7, 8, 9, 32, 63, 64, 65, 130))
def test_lookup_block_equals_bool_formula(batch):
    """The byte-lookup code block holds exactly the bool backend's codes
    ``FALL_CODE * (t ^ r) + RISE_CODE * r`` (in the ratio
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


def test_reference_fold_tolerance(chip, sim_scenario, engine, monkeypatch):
    """The float64 per-cycle dense reference fold agrees to 1e-5."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
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
