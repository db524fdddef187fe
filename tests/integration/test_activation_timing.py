"""Spectral localisation of a mid-record Trojan activation."""

import numpy as np

from repro.analysis.spectral import amplitude_spectrum, band_energy
from repro.chip import AcquisitionEngine, EncryptionWorkload
from repro.experiments.campaign import DEFAULT_KEY, SPECTRAL_PERIOD


class _MidRunActivation:
    """Encryption workload that asserts a Trojan enable mid-record."""

    def __init__(self, aes, enable_pin: str, turn_on_cycle: int):
        self._inner = EncryptionWorkload(aes, DEFAULT_KEY, period=SPECTRAL_PERIOD)
        self._pin = enable_pin
        self._turn_on = turn_on_cycle

    def begin(self, batch: int, rng) -> None:
        self._inner.begin(batch, rng)

    def inputs(self, cycle: int, batch: int):
        base = self._inner.inputs(cycle, batch) or {}
        if cycle == self._turn_on:
            base = dict(base)
            base[self._pin] = np.ones(batch, dtype=bool)
        return base or None


def _band_energy(record, fs, band, frame=32768):
    """Energy in *band* of the frame-averaged spectrum of *record*."""
    rows = record[: record.size // frame * frame].reshape(-1, frame)
    return band_energy(amplitude_spectrum(rows, fs), *band)


def test_a2_activation_localised_in_time(chip, sim_scenario):
    """The A2 trigger comb appears when the attacker arms it, not before."""
    engine = AcquisitionEngine(chip, sim_scenario)
    turn_on_cycle = 2048
    n_cycles = 4096
    workload = _MidRunActivation(
        chip.aes, chip.trojans["a2"].enable_pin, turn_on_cycle
    )
    result = engine.acquire(
        workload,
        n_cycles=n_cycles,
        batch=1,
        include_noise=False,
        rng_role="act-timing",
    )
    trace = result.traces["sensor"][0]
    fs = chip.config.fs
    f_trigger = chip.config.f_clk / 3
    band = (f_trigger - 0.1e6, f_trigger + 0.1e6)
    i_on = turn_on_cycle * chip.config.samples_per_cycle
    guard = int(1e-5 * fs)

    # The trigger band's energy jumps between the records before and
    # after the arming cycle.
    before = _band_energy(trace[: i_on - guard], fs, band)
    after = _band_energy(trace[i_on + guard :], fs, band)
    assert after > 3 * before

    # Control: a dormant record's band stays flat (no 3x step).
    clean = engine.acquire(
        EncryptionWorkload(chip.aes, DEFAULT_KEY, period=SPECTRAL_PERIOD),
        n_cycles=n_cycles,
        batch=1,
        include_noise=False,
        rng_role="act-timing-clean",
    ).traces["sensor"][0]
    first_half = _band_energy(clean[:i_on], fs, band)
    second_half = _band_energy(clean[i_on:], fs, band)
    assert second_half < 3 * first_half
