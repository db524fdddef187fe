"""Tests for the acquisition engine (uses the shared session chip)."""

import numpy as np
import pytest

from repro.chip import AcquisitionEngine, EncryptionWorkload, IdleWorkload
from repro.errors import ExperimentError, MeasurementError

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def engine(chip, sim_scenario):
    return AcquisitionEngine(chip, sim_scenario)


def test_trace_shapes(chip, engine):
    res = engine.acquire(IdleWorkload(), n_cycles=16, batch=3)
    spc = chip.config.samples_per_cycle
    for name in ("sensor", "probe"):
        assert res.traces[name].shape == (3, 17 * spc)


def test_acquisition_is_deterministic(chip, engine):
    wl = EncryptionWorkload(chip.aes, KEY)
    a = engine.acquire(wl, n_cycles=32, batch=2, rng_role="det")
    b = engine.acquire(
        EncryptionWorkload(chip.aes, KEY), n_cycles=32, batch=2, rng_role="det"
    )
    assert np.array_equal(a.traces["sensor"], b.traces["sensor"])


def test_different_roles_differ(chip, engine):
    wl = EncryptionWorkload(chip.aes, KEY)
    a = engine.acquire(wl, n_cycles=16, batch=1, rng_role="r1")
    b = engine.acquire(
        EncryptionWorkload(chip.aes, KEY), n_cycles=16, batch=1, rng_role="r2"
    )
    assert not np.array_equal(a.traces["sensor"], b.traces["sensor"])


def test_workload_role_replays_stimulus(chip, engine):
    wl1 = EncryptionWorkload(chip.aes, KEY)
    a = engine.acquire(
        wl1, n_cycles=16, batch=1, rng_role="x1", workload_role="shared",
        include_noise=False,
    )
    wl2 = EncryptionWorkload(chip.aes, KEY)
    b = engine.acquire(
        wl2, n_cycles=16, batch=1, rng_role="x2", workload_role="shared",
        include_noise=False,
    )
    assert np.array_equal(a.traces["sensor"], b.traces["sensor"])
    assert np.array_equal(wl1.plaintexts[0], wl2.plaintexts[0])


def test_encryption_workload_completes_encryptions(chip, engine):
    """`done` must pulse at the AES latency inside the engine's loop."""
    wl = EncryptionWorkload(chip.aes, KEY, period=12)
    res = engine.acquire(wl, n_cycles=12, batch=2, rng_role="ct",
                         record_nets={"done": chip.aes.done})
    assert res.recorded["done"][chip.aes.latency].all()


def test_trojan_enable_changes_traces(chip, engine):
    wl = EncryptionWorkload(chip.aes, KEY)
    clean = engine.acquire(
        wl, n_cycles=24, batch=1, rng_role="t", workload_role="w",
        include_noise=False,
    )
    dirty = engine.acquire(
        EncryptionWorkload(chip.aes, KEY), n_cycles=24, batch=1,
        trojan_enables=("trojan4",), rng_role="t", workload_role="w",
        include_noise=False,
    )
    assert not np.array_equal(clean.traces["sensor"], dirty.traces["sensor"])


def test_idle_quieter_than_encrypting(chip, engine):
    idle = engine.acquire(IdleWorkload(), n_cycles=64, batch=2,
                          include_noise=False, rng_role="q")
    busy = engine.acquire(EncryptionWorkload(chip.aes, KEY), n_cycles=64,
                          batch=2, include_noise=False, rng_role="q")
    for name in ("sensor", "probe"):
        assert np.abs(idle.traces[name]).mean() < 0.2 * np.abs(
            busy.traces[name]
        ).mean()


def test_unknown_receiver_rejected(chip, engine):
    with pytest.raises(MeasurementError):
        engine.acquire(IdleWorkload(), n_cycles=4, receivers=("antenna",))


def test_unknown_trojan_rejected(chip, engine):
    with pytest.raises(MeasurementError):
        engine.acquire(IdleWorkload(), n_cycles=4, trojan_enables=("ghost",))


def test_bad_cycle_count_rejected(chip, engine):
    with pytest.raises(MeasurementError):
        engine.acquire(IdleWorkload(), n_cycles=0)


def test_workload_validation(chip):
    with pytest.raises(ExperimentError):
        EncryptionWorkload(chip.aes, KEY, period=5)
    with pytest.raises(ExperimentError):
        EncryptionWorkload(chip.aes, b"short")
    wl = EncryptionWorkload(chip.aes, KEY)
    with pytest.raises(ExperimentError):
        wl.inputs(0, 1)  # begin() not called


def test_record_nets(chip, engine):
    res = engine.acquire(
        IdleWorkload(), n_cycles=8, batch=2,
        record_nets={"busy": chip.aes.busy},
    )
    assert res.recorded["busy"].shape == (9, 2)
    assert not res.recorded["busy"].any()  # idle chip never gets busy
