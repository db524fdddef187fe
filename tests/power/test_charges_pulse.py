"""Tests for per-cell charges and pulse-kernel waveform synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EmModelError
from repro.layout.technology import make_tech180
from repro.logic.builder import NetlistBuilder
from repro.power.charges import clock_charges, switching_charges
from repro.power.pulse import (
    current_kernel,
    emf_kernel,
    step_kernel,
    synthesize_events,
)
from tests.power.reference_synthesis import synthesize_events_fft

FS = 2.4e9


@pytest.fixture(scope="module")
def small_netlist():
    b = NetlistBuilder("p", group="core")
    a = b.input("a")
    y1 = b.inv(a)
    y2 = b.inv(y1)
    b.dff(y2)
    # High-fanout node.
    for _ in range(10):
        b.buf(y1)
    return b.build()


def test_switching_charges_positive_and_fanout_sensitive(small_netlist):
    tech = make_tech180()
    names = list(small_netlist.instances)
    q = switching_charges(small_netlist.lower(), tech)
    assert (q > 0).all()
    # The first inverter drives 11 loads and must carry the most charge.
    idx = {n: i for i, n in enumerate(names)}
    driver = small_netlist.nets[
        small_netlist.instances[names[0]].output_net
    ].driver
    assert q[idx[driver]] == q.max()


def test_clock_charges_only_for_flops(small_netlist):
    tech = make_tech180()
    names = list(small_netlist.instances)
    qc = clock_charges(small_netlist.lower(), tech)
    for name, value in zip(names, qc):
        inst = small_netlist.instances[name]
        if inst.cell.is_sequential:
            assert value > 0
        else:
            assert value == 0


def test_current_kernel_unit_area():
    k = current_kernel(FS, 1e-9)
    assert k.sum() / FS == pytest.approx(1.0)
    assert (k >= 0).all()
    assert len(k) % 2 == 1


def test_emf_kernel_integrates_to_zero():
    k = emf_kernel(FS, 1e-9)
    assert abs(k.sum() / FS) < 1e-6 * np.abs(k).max()


def test_step_kernel_is_negative_unit_area():
    k = step_kernel(FS, 2e-9)
    assert k.sum() / FS == pytest.approx(-1.0)


def test_kernel_validation():
    with pytest.raises(EmModelError):
        current_kernel(-1, 1e-9)
    with pytest.raises(EmModelError):
        current_kernel(FS, 0)


def test_synthesize_single_event_places_kernel():
    kern = emf_kernel(FS, 1e-9)
    wave = synthesize_events(
        np.array([100 / FS]), np.array([2.0]), kern, 300, FS
    )
    assert wave.shape == (1, 300)
    peak_idx = int(np.argmax(np.abs(wave[0])))
    assert abs(peak_idx - 100) <= len(kern)
    assert np.abs(wave).max() == pytest.approx(2.0 * np.abs(kern).max(), rel=1e-9)


def test_synthesize_is_linear():
    kern = emf_kernel(FS, 1e-9)
    times = np.array([50 / FS, 120 / FS])
    a = synthesize_events(times, np.array([1.0, 0.0]), kern, 300, FS)
    b = synthesize_events(times, np.array([0.0, 3.0]), kern, 300, FS)
    both = synthesize_events(times, np.array([1.0, 3.0]), kern, 300, FS)
    assert np.allclose(both, a + b, atol=1e-9 * np.abs(both).max())


def test_synthesize_batched_amplitudes():
    kern = emf_kernel(FS, 1e-9)
    amps = np.array([[1.0, 2.0]])
    wave = synthesize_events(np.array([10 / FS]), amps, kern, 100, FS)
    assert wave.shape == (2, 100)
    assert np.allclose(wave[1], 2 * wave[0])


def test_synthesize_ignores_out_of_range_events():
    kern = emf_kernel(FS, 1e-9)
    wave = synthesize_events(
        np.array([-5 / FS, 1e6 / FS]), np.array([1.0, 1.0]), kern, 100, FS
    )
    assert not wave.any()


def test_synthesize_shape_mismatch():
    kern = emf_kernel(FS, 1e-9)
    with pytest.raises(EmModelError):
        synthesize_events(np.array([0.0]), np.array([1.0, 2.0]), kern, 10, FS)


def _kernel(taps):
    """A kernel of *taps* samples: the 3-tap emf pulse, the 5- and
    13-tap step kernels of the 2 ns and 5 ns tap rises, or a random
    one."""
    if taps == 3:
        return emf_kernel(FS, 0.4e-9)
    if taps == 5:
        return step_kernel(FS, 2e-9)
    if taps == 13:
        return step_kernel(FS, 5e-9)
    return np.random.default_rng(taps).normal(size=taps)


SYNTH_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_events=st.integers(0, 60),
    n_samples=st.integers(1, 80),
    taps=st.sampled_from([1, 3, 5, 13]),
    columns=st.integers(1, 40),
)


def _events(seed, n_events, n_samples, columns):
    """Events at the trace edges, inside it and outside it, with
    sub-sample jitter that still rounds to the drawn sample, and some
    exact repeats of other events' times."""
    rng = np.random.default_rng(seed)
    pool = np.array([-3, -1, 0, n_samples - 1, n_samples, n_samples + 4])
    idx = np.where(
        rng.random(n_events) < 0.3,
        rng.choice(pool, n_events),
        rng.integers(0, n_samples, n_events),
    )
    times = (idx + rng.uniform(-0.4, 0.4, n_events)) / FS
    if n_events > 1:
        dup = rng.random(n_events) < 0.3
        times[dup] = times[rng.integers(0, n_events, dup.sum())]
    amps = rng.normal(size=(n_events, columns))
    amps[rng.random(amps.shape) < 0.2] = 0.0
    return rng, times, amps


@settings(max_examples=80, deadline=None)
@given(**SYNTH_CASES)
def test_synthesis_matches_fft_oracle(seed, n_events, n_samples, taps, columns):
    _, times, amps = _events(seed, n_events, n_samples, columns)
    kern = _kernel(taps)
    got = synthesize_events(times, amps, kern, n_samples, FS)
    ref = synthesize_events_fft(times, amps, kern, n_samples, FS)
    assert got.shape == ref.shape == (columns, n_samples)
    peak = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-12 * peak


@settings(max_examples=60, deadline=None)
@given(**SYNTH_CASES)
def test_synthesis_rows_ignore_other_columns(
    seed, n_events, n_samples, taps, columns
):
    rng, times, amps = _events(seed, n_events, n_samples, columns)
    kern = _kernel(taps)
    full = synthesize_events(times, amps, kern, n_samples, FS)
    subset = np.sort(rng.choice(columns, rng.integers(1, columns + 1), False))
    part = synthesize_events(times, amps[:, subset], kern, n_samples, FS)
    assert part.tobytes() == full[subset].tobytes()
    one = synthesize_events(times, amps[:, subset[0]], kern, n_samples, FS)
    assert one.tobytes() == full[subset[:1]].tobytes()
