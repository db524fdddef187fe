"""Tests for the Trojan payload demodulators (the test oracle in
:mod:`tests.trojans.demod`)."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from tests.trojans.demod import (
    demodulate_am_bits,
    despread_cdma_bits,
    leakage_symbol_bits,
    lfsr_sequence,
)


def test_am_demodulation_recovers_ook_bits(rng):
    fs = 100e6
    carrier = 1e6
    bit_duration = 20e-6
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    t = np.arange(int(len(bits) * bit_duration * fs)) / fs
    envelope = np.repeat(bits, int(bit_duration * fs)).astype(float)
    signal = envelope * np.sin(2 * np.pi * carrier * t)
    signal += 0.05 * rng.normal(size=signal.size)
    got = demodulate_am_bits(signal, fs, carrier, bit_duration, len(bits))
    assert list(got) == bits


def test_am_demodulation_too_short_raises():
    with pytest.raises(AnalysisError):
        demodulate_am_bits(np.zeros(100), 1e6, 1e5, 1e-3, 10)


def test_lfsr_sequence_properties():
    seq = lfsr_sequence(16, (10, 12, 13, 15), 0xACE1, 1000)
    assert set(np.unique(seq)) <= {0, 1}
    # Balanced-ish pseudo-noise.
    assert 0.4 < seq.mean() < 0.6
    with pytest.raises(AnalysisError):
        lfsr_sequence(8, (0,), 0, 10)


def test_cdma_despread_roundtrip(rng):
    prn = lfsr_sequence(16, (10, 12, 13, 15), 0xACE1, 320)
    bits = rng.integers(0, 2, 10).astype(np.uint8)
    chips = np.repeat(bits, 32) ^ prn
    got = despread_cdma_bits(chips, prn, 32)
    assert np.array_equal(got, bits)


def test_cdma_despread_majority_vote_tolerates_chip_errors(rng):
    prn = lfsr_sequence(16, (10, 12, 13, 15), 0xACE1, 320)
    bits = rng.integers(0, 2, 10).astype(np.uint8)
    chips = np.repeat(bits, 32) ^ prn
    flip = rng.choice(chips.size, size=30, replace=False)
    chips[flip] ^= 1  # < 50% errors per bit window
    got = despread_cdma_bits(chips, prn, 32)
    assert np.array_equal(got, bits)


def test_cdma_despread_validation():
    with pytest.raises(AnalysisError):
        despread_cdma_bits(np.ones(64, np.uint8), np.ones(32, np.uint8), 32)
    with pytest.raises(AnalysisError):
        despread_cdma_bits(np.ones(8, np.uint8), np.ones(8, np.uint8), 32)


def test_leakage_symbol_bits_sampling():
    stream = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1])
    got = leakage_symbol_bits(stream, symbol_cycles=4, n_bits=3, phase=0)
    assert list(got) == [0, 0, 0] or list(got) == [1, 1, 1]
    with pytest.raises(AnalysisError):
        leakage_symbol_bits(stream, 4, 10)


def test_am_demodulation_stable_at_gigasample_rates(rng):
    """Regression: transfer-function filters blow up at 750 kHz on a
    2.4 GS/s trace; the SOS implementation must stay finite."""
    fs = 2.4e9
    carrier = 750e3
    bit_duration = 128 / 24e6
    bits = [0, 1, 1, 0]
    n = int(len(bits) * bit_duration * fs)
    t = np.arange(n) / fs
    envelope = np.repeat(bits, n // len(bits))[:n].astype(float)
    x = 1e-5 * envelope * np.sin(2 * np.pi * carrier * t)
    x += 1e-6 * rng.normal(size=n)
    got = demodulate_am_bits(x, fs, carrier, bit_duration, len(bits))
    assert np.isfinite(got).all()
    assert list(got) == bits
