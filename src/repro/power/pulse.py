"""Current-pulse kernels and event-train waveform synthesis.

Every switching event is an impulse carrying an amplitude (coupling ×
charge); convolving the impulse train with the right kernel produces
the receiver voltage:

* gate/clock/charge-pump events: current is a unit-area triangular
  pulse ``p(t)``, so the induced emf kernel is ``-p'(t)``
  (:func:`emf_kernel`);
* level-mode analog taps (T2's leakage): current is a smoothed step,
  so each on/off transition contributes ``-amp · p_rise(t)``
  (:func:`step_kernel` returns that unit-area rise pulse).

:func:`synthesize_events` builds the waveform straight from the
events: the kernels are 3–13 samples long, so it merges the events of
each sample and adds every merged amplitude times every kernel tap,
touching only the samples the events reach — this is the step that
turns hours of per-gate Hspice work into milliseconds of numpy.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import EmModelError


def current_kernel(fs: float, width: float) -> np.ndarray:
    """Unit-area triangular current pulse sampled at *fs*.

    Parameters
    ----------
    fs:
        Sample rate [Hz].
    width:
        Full base width of the triangle [s].
    """
    if fs <= 0 or width <= 0:
        raise EmModelError("fs and width must be positive")
    n = max(3, int(round(width * fs)) | 1)  # odd length, >= 3 samples
    ramp = np.bartlett(n)
    area = ramp.sum() / fs
    return ramp / area


def emf_kernel(fs: float, width: float) -> np.ndarray:
    """Derivative of the triangular current pulse (emf shape).

    Convolving an impulse of amplitude ``M·q`` with this kernel yields
    ``M·q·p'(t)`` — the (sign-flipped) induced emf of one charge packet.
    """
    p = current_kernel(fs, width)
    return -np.gradient(p) * fs


def step_kernel(fs: float, rise_time: float) -> np.ndarray:
    """Unit-area rise pulse: derivative of a smoothed current step.

    Convolving signed transition impulses of amplitude ``M·amp`` with
    this kernel yields the emf of a level-mode analog tap.
    """
    return -current_kernel(fs, rise_time)


def synthesize_events(
    event_times: np.ndarray,
    event_amplitudes: np.ndarray,
    kernel: np.ndarray,
    n_samples: int,
    fs: float,
) -> np.ndarray:
    """Convolve a batched impulse train with *kernel*.

    Each event lands on its nearest sample; events outside
    ``[0, n_samples)`` are dropped, and so is every kernel tap that
    falls outside the trace (a centred convolution, truncated to the
    trace).  The events of one sample are summed first, in event
    order, then each kernel tap adds its share, in tap order.  Every
    output value is thus a fixed-order sum over its own column, so a
    column's waveform does not depend on which other columns share the
    call.

    Parameters
    ----------
    event_times:
        Event times [s], shape ``(E,)`` shared across the batch.
    event_amplitudes:
        Amplitudes, shape ``(E,)`` or ``(E, batch)``.
    kernel:
        Sampled kernel (see the kernel constructors above).
    n_samples:
        Output trace length.
    fs:
        Sample rate [Hz].

    Returns
    -------
    numpy.ndarray
        Waveforms of shape ``(batch, n_samples)`` (batch = 1 for 1-D
        amplitudes).
    """
    times = np.asarray(event_times, dtype=np.float64)
    amps = np.asarray(event_amplitudes, dtype=np.float64)
    if amps.ndim == 1:
        amps = amps[:, None]
    if times.shape[0] != amps.shape[0]:
        raise EmModelError(
            f"{times.shape[0]} event times vs {amps.shape[0]} amplitude rows"
        )
    idx = np.round(times * fs).astype(np.int64)
    keep = np.flatnonzero((idx >= 0) & (idx < n_samples))
    order = keep[np.argsort(idx[keep], kind="stable")]
    samples, starts = np.unique(idx[order], return_index=True)
    # 0/1 (samples, events) indicator in CSR form: its product with the
    # amplitudes adds each sample's events row by row, in event order.
    merge = sparse.csr_array(
        (np.ones(order.size), order, np.append(starts, order.size)),
        shape=(samples.size, times.size),
    )
    merged = merge @ amps
    # Sum the taps on the samples they reach, then write those columns.
    offsets = np.arange(len(kernel)) - len(kernel) // 2
    reach, slot = np.unique(samples[:, None] + offsets, return_inverse=True)
    slot = slot.reshape(samples.size, len(kernel))
    compact = np.zeros((reach.size, amps.shape[1]))
    for t, tap in enumerate(kernel):
        compact[slot[:, t]] += tap * merged
    inside = (reach >= 0) & (reach < n_samples)
    out = np.zeros((amps.shape[1], n_samples))
    out[:, reach[inside]] = compact[inside].T
    return out
