"""Trojan payload demodulators — the test oracle that the Trojans leak.

Detection (does the EM fingerprint shift?) and exploitation (does the
Trojan really leak the key?) are different claims.  No result of the
reproduction depends on the second one, but the paper's Trojans are
real leakers, so the payload tests prove it with these receivers:

* :func:`demodulate_am_bits` — the wireless receiver for Trojan 1:
  band-pass around the 750 kHz carrier, envelope detection, per-bit
  integrate-and-dump, threshold;
* :func:`despread_cdma_bits` — the CDMA receiver for Trojan 3:
  regenerate the LFSR chip sequence, XOR-despread, majority vote;
* :func:`leakage_symbol_bits` — the current monitor for Trojan 2:
  sample the leakage condition once per symbol and invert.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from repro.errors import AnalysisError


def demodulate_am_bits(
    trace: np.ndarray,
    fs: float,
    carrier_freq: float,
    bit_duration: float,
    n_bits: int,
    start_time: float = 0.0,
    band_halfwidth: float | None = None,
) -> np.ndarray:
    """Recover on-off-keyed bits from an EM trace (Trojan 1's receiver).

    Parameters
    ----------
    trace:
        1-D voltage record.
    fs:
        Sample rate [Hz].
    carrier_freq:
        AM carrier frequency (750 kHz in the paper).
    bit_duration:
        Seconds per transmitted bit.
    n_bits:
        Number of bits to demodulate.
    start_time:
        Time of the first bit boundary [s].
    band_halfwidth:
        Band-pass half width around the carrier (default: 60 % of it).
    """
    x = np.asarray(trace, dtype=np.float64).ravel()
    if fs <= 0 or carrier_freq <= 0 or bit_duration <= 0:
        raise AnalysisError("fs, carrier_freq and bit_duration must be positive")
    hw = band_halfwidth if band_halfwidth is not None else 0.6 * carrier_freq
    nyq = 0.5 * fs
    lo = max((carrier_freq - hw) / nyq, 1e-6)
    hi = min((carrier_freq + hw) / nyq, 0.999999)
    # Second-order sections: a transfer-function filter is numerically
    # unstable at the tiny normalised frequencies a 750 kHz carrier
    # occupies on a GS/s trace.
    sos = signal.butter(3, [lo, hi], btype="band", output="sos")
    narrow = signal.sosfiltfilt(sos, x)
    envelope = np.abs(signal.hilbert(narrow))

    bit_samples = int(round(bit_duration * fs))
    start = int(round(start_time * fs))
    need = start + n_bits * bit_samples
    if need > x.size:
        raise AnalysisError(
            f"trace of {x.size} samples too short for {n_bits} bits "
            f"({need} needed)"
        )
    levels = np.array(
        [
            envelope[start + k * bit_samples : start + (k + 1) * bit_samples].mean()
            for k in range(n_bits)
        ]
    )
    threshold = 0.5 * (levels.max() + levels.min())
    return (levels > threshold).astype(np.uint8)


def lfsr_sequence(width: int, taps: tuple[int, ...], seed: int, length: int) -> np.ndarray:
    """Software replay of the Fibonacci LFSR in :mod:`repro.logic.builder`.

    Bit 0 of the state is the MSB; the output chip is the MSB before
    each shift, matching the netlist's ``prn_state[0]`` tap.
    """
    if seed <= 0 or seed >= (1 << width):
        raise AnalysisError(f"seed {seed} invalid for a {width}-bit LFSR")
    state = [(seed >> (width - 1 - i)) & 1 for i in range(width)]
    out = np.empty(length, dtype=np.uint8)
    for k in range(length):
        out[k] = state[0]
        fb = 0
        for t in taps:
            fb ^= state[t]
        state = [fb] + state[:-1]
    return out


def despread_cdma_bits(
    chips: np.ndarray,
    prn: np.ndarray,
    chips_per_bit: int,
) -> np.ndarray:
    """Despread a CDMA chip stream (Trojan 3's receiver).

    ``chips[k] = key_bit XOR prn[k]``, so XORing with the replayed PRN
    and majority-voting each *chips_per_bit* window recovers the bits.
    """
    c = np.asarray(chips, dtype=np.uint8).ravel()
    p = np.asarray(prn, dtype=np.uint8).ravel()
    if c.size > p.size:
        raise AnalysisError(
            f"PRN replay of {p.size} chips shorter than stream {c.size}"
        )
    if chips_per_bit <= 0:
        raise AnalysisError(f"chips_per_bit must be positive, got {chips_per_bit}")
    raw = c ^ p[: c.size]
    n_bits = c.size // chips_per_bit
    if n_bits == 0:
        raise AnalysisError("stream shorter than one bit")
    votes = raw[: n_bits * chips_per_bit].reshape(n_bits, chips_per_bit)
    return (votes.mean(axis=1) > 0.5).astype(np.uint8)


def leakage_symbol_bits(
    leak_values: np.ndarray,
    symbol_cycles: int,
    n_bits: int,
    phase: int = 0,
) -> np.ndarray:
    """Read Trojan 2's key stream off the leakage condition record.

    ``leak_values`` is the per-cycle value of the leak-stage net
    (``(cycles,)`` 0/1); the leakage current flows while it is **low**,
    so the transmitted bit is the net value itself sampled mid-symbol.
    """
    v = np.asarray(leak_values).astype(np.uint8).ravel()
    if symbol_cycles <= 0:
        raise AnalysisError(f"symbol_cycles must be positive, got {symbol_cycles}")
    idx = phase + symbol_cycles // 2 + np.arange(n_bits) * symbol_cycles
    if idx[-1] >= v.size:
        raise AnalysisError(
            f"record of {v.size} cycles too short for {n_bits} symbols"
        )
    return v[idx]
