"""Channel-group synthesis: pinned trace digests and the one-pass contract.

Signal synthesis runs once per *synthesis group* — the receivers that
share ``Receiver.group``, ``sense`` and ``external`` — with one
``synthesize_events`` call per event kind for the whole group, and tap
passes whose events are all zero skipped.  Two contracts guard it:

* **Pinned traces** — SHA-256 digests of every receiver's traces on the
  seed-1 4x4 array chip (golden and each Trojan, batches 1, 8 and 33,
  plus a noise-off coil subset) and on a power-monitor chip with T2
  enabled (current-sense box path and level taps in groups of one).
  The digests live in :mod:`tests.trace_pins`, each bound to the
  ``CACHE_SALT`` it was taken under: a change that moves any bit fails
  here and must bump the salt and re-take the pins.
* **One pass** — a 16-coil acquisition convolves once for the data and
  clock train plus once per tap that carries events, and the
  ``acquire.synth.passes`` counter reports exactly that count.

The clock train's amplitudes are exact sums over the chip's enable nets
of grid-rounded weights; :class:`TestClockAmplitudes` holds them to the
per-register ``einsum`` of the unrounded weights, with the logic stepped
on lane words or as bool arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.chip.acquire as acquire_mod
from repro.chip import EncryptionWorkload
from repro.chip.acquire import AcquisitionEngine
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import array_scenario, silicon_scenario
from repro.obs import use_metrics
from tests.chip.bool_engine import engine_for
from tests.chip.reference_fold import ReferenceFoldEngine
from tests.trace_pins import check_pin, traces_digest

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
N_CYCLES = 48
TROJANS = (None, "trojan1", "trojan2", "trojan3", "trojan4", "a2")
BATCHES = (1, 8, 33)
SUBSET = ("array.r0c3", "array.r2c2", "array.r3c2")
#: Tap passes a 16-coil acquisition adds per enabled Trojan: one per
#: analog tap carrying events (Trojan 4 has no tap).
TAP_PASSES = {"trojan1": 1, "trojan2": 1, "trojan3": 1, "trojan4": 0, "a2": 1}


def _acquire(engine, batch, trojan=None, receivers=None, include_noise=True):
    return engine.acquire(
        EncryptionWorkload(engine.chip.aes, KEY),
        n_cycles=N_CYCLES,
        batch=batch,
        trojan_enables=() if trojan is None else (trojan,),
        receivers=receivers,
        include_noise=include_noise,
        rng_role="group-synth",
    )


@pytest.fixture(scope="module")
def array_engine() -> AcquisitionEngine:
    chip = Chip.build(
        config=ChipConfig(sensor_array_rows=4, sensor_array_cols=4), seed=1
    )
    return AcquisitionEngine(chip, array_scenario(4, 4, seed=1))


@pytest.fixture(scope="module")
def power_engine() -> AcquisitionEngine:
    chip = Chip.build(config=ChipConfig(include_power_monitor=True), seed=1)
    return AcquisitionEngine(chip, silicon_scenario(seed=1))


@pytest.fixture()
def counted_synthesis(monkeypatch):
    """Record the amplitude-matrix shape of every convolution pass."""
    calls: list[tuple[int, ...]] = []
    real = acquire_mod.synthesize_events

    def counting(times, amps, kernel, n_samples, fs):
        calls.append(np.shape(amps))
        return real(times, amps, kernel, n_samples, fs)

    monkeypatch.setattr(acquire_mod, "synthesize_events", counting)
    return calls


class TestPinnedTraces:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("trojan", TROJANS)
    def test_array_chip(self, array_engine, trojan, batch):
        result = _acquire(array_engine, batch, trojan)
        names = tuple(array_engine.chip.receivers)
        assert len(names) == 18
        check_pin(
            f"acquire/array/{trojan or 'golden'}/{batch}",
            traces_digest(result.traces, names),
        )

    def test_noise_off_coil_subset(self, array_engine):
        result = _acquire(
            array_engine, 8, "trojan3", receivers=SUBSET, include_noise=False
        )
        check_pin("acquire/array/subset", traces_digest(result.traces, SUBSET))

    def test_power_monitor_chip(self, power_engine):
        names = tuple(power_engine.chip.receivers)
        assert names == ("sensor", "probe", "power")
        assert power_engine.chip.receivers["power"].sense == "current"
        result = _acquire(power_engine, 8, "trojan2")
        check_pin("acquire/power", traces_digest(result.traces, names))


class TestOnePass:
    @pytest.mark.parametrize("trojan", TROJANS)
    def test_sixteen_coils_convolve_once_per_event_kind(
        self, array_engine, counted_synthesis, trojan
    ):
        coils = array_engine.chip.receiver_groups["array"]
        assert len(coils) == 16
        batch = 8
        _acquire(array_engine, batch, trojan, receivers=coils)
        expected = 1 + (TAP_PASSES[trojan] if trojan else 0)
        assert len(counted_synthesis) == expected
        # Every pass carries all 16 coils' columns at once.
        assert all(shape[1] == 16 * batch for shape in counted_synthesis)

    def test_solo_coil_equals_group_member(self, array_engine):
        coils = array_engine.chip.receiver_groups["array"]
        group = _acquire(array_engine, 8, "trojan2", receivers=coils)
        for name in ("array.r0c0", "array.r2c1", "array.r3c3"):
            solo = _acquire(array_engine, 8, "trojan2", receivers=(name,))
            np.testing.assert_array_equal(solo.traces[name], group.traces[name])

    def test_passes_counter_matches_calls(self, array_engine, counted_synthesis):
        with use_metrics() as metrics:
            _acquire(array_engine, 4, "a2")
        passes = metrics.counter("acquire.synth.passes").value
        # sensor, probe and the array group: data + A2 tap pass each.
        assert passes == len(counted_synthesis) == 6


class TestClockAmplitudes:
    @pytest.mark.parametrize("kind", ("bool", "packed"))
    def test_match_per_register_einsum(self, array_engine, monkeypatch,
                                       kind):
        """Every receiver's clock amplitudes, per cycle and lane, agree
        with ``np.einsum("s,csb->cb", w, clock_en)`` of the unrounded
        per-register weights to 1e-10 of the largest amplitude."""
        chip = array_engine.chip
        batch = 8
        reference = ReferenceFoldEngine(chip, array_engine.scenario)
        _acquire(reference, batch, "trojan2", include_noise=False)
        clock_en = reference.clock_en
        assert clock_en.shape == (N_CYCLES, chip.sim.seq_instance_idx.size,
                                  batch)

        sums: list[np.ndarray] = []
        real = acquire_mod._clock_sum

        def recording(steps, units, enables):
            sums.append(real(steps, units, enables))
            return sums[-1]

        monkeypatch.setattr(acquire_mod, "_clock_sum", recording)
        _acquire(engine_for(kind, array_engine), batch, "trojan2",
                 include_noise=False)
        got = np.concatenate(sums).reshape(-1, N_CYCLES, batch)

        names = [
            name
            for group in array_engine._synthesis_groups(tuple(chip.receivers))
            for name in group
        ]
        scale = array_engine._charge_scale[chip.sim.seq_instance_idx]
        ref = np.stack([
            np.einsum(
                "s,csb->cb",
                chip.receivers[name].cell_coupling[chip.sim.seq_instance_idx]
                * chip.q_clock[chip.sim.seq_instance_idx] * scale,
                clock_en,
            )
            for name in names
        ])
        assert got.shape == ref.shape == (18, N_CYCLES, batch)
        peak = np.max(np.abs(ref))
        assert peak > 0
        assert np.max(np.abs(got - ref)) <= 1e-10 * peak
