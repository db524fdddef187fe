"""FFT reference for :func:`repro.power.pulse.synthesize_events`.

:func:`synthesize_events_fft` is the dense form of event synthesis:
scatter the events into a ``(batch, n_samples)`` impulse train, run a
full ``scipy.signal.fftconvolve`` over every row and keep the centred
``n_samples`` window.  The property tests hold the direct short-kernel
synthesis to 1e-12 of this oracle's peak, and
``benchmarks/bench_perf_kernels.py`` times it as the baseline.
"""

from __future__ import annotations

import numpy as np
from scipy import signal


def synthesize_events_fft(
    event_times: np.ndarray,
    event_amplitudes: np.ndarray,
    kernel: np.ndarray,
    n_samples: int,
    fs: float,
) -> np.ndarray:
    """Centred FFT convolution of the batched impulse train."""
    times = np.asarray(event_times, dtype=np.float64)
    amps = np.asarray(event_amplitudes, dtype=np.float64)
    if amps.ndim == 1:
        amps = amps[:, None]
    impulses = np.zeros((amps.shape[1], n_samples))
    idx = np.round(times * fs).astype(np.int64)
    keep = (idx >= 0) & (idx < n_samples)
    if keep.any():
        np.add.at(impulses, (slice(None), idx[keep]), amps[keep].T)
    out = signal.fftconvolve(impulses, kernel[None, :], mode="full", axes=1)
    lead = len(kernel) // 2
    return out[:, lead : lead + n_samples]
