"""Channel-group synthesis: pinned trace digests and the one-pass contract.

Signal synthesis runs once per *synthesis group* — the receivers that
share ``Receiver.group``, ``sense`` and ``external`` — with one
``synthesize_events`` call per event kind for the whole group, and tap
passes whose events are all zero skipped.  Two contracts guard it:

* **Pinned traces** — SHA-256 digests of every receiver's traces on the
  seed-1 4x4 array chip (golden and each Trojan, batches 1, 8 and 33,
  plus a noise-off coil subset) and on a power-monitor chip with T2
  enabled (current-sense box path and level taps in groups of one).
  The pins were taken from the per-receiver synthesis this replaced; a
  change that moves any bit fails here and must bump ``CACHE_SALT``.
  They are digests of float64 bytes taken with numpy 2.4, scipy 1.17
  and OpenBLAS 0.3.31 on x86-64: a different FFT or GEMM build may
  round differently and need them re-taken from an unchanged commit.
* **One pass** — a 16-coil acquisition convolves once for the data and
  clock train plus once per tap that carries events, and the
  ``acquire.synth.passes`` counter reports exactly that count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.chip.acquire as acquire_mod
from repro.chip import EncryptionWorkload
from repro.chip.acquire import AcquisitionEngine
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import array_scenario, silicon_scenario
from repro.obs import use_metrics

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
N_CYCLES = 48
TROJANS = (None, "trojan1", "trojan2", "trojan3", "trojan4", "a2")
BATCHES = (1, 8, 33)
SUBSET = ("array.r0c3", "array.r2c2", "array.r3c2")
#: Tap passes a 16-coil acquisition adds per enabled Trojan: one per
#: analog tap carrying events (Trojan 4 has no tap).
TAP_PASSES = {"trojan1": 1, "trojan2": 1, "trojan3": 1, "trojan4": 0, "a2": 1}

#: ``{(trojan or "golden", batch): digest}`` over all 18 receivers.
PINNED = {
    ("golden", 1): "44fc2e60fd9aee1d2275fc1fddf0777f9b95fc81ef93e5e94978f9e9fc211c05",
    ("golden", 8): "70044f6699f022398a6071d0f290be222d06ffd09fbcdc787aedf36accd8dbc3",
    ("golden", 33): "42a98d20c91abb0ecf3e4efc11777c830385c424f29b19c25312a707e333f4f6",
    ("trojan1", 1): "eefa6609cd318c51a0ea9a0d912e0dcad81eb7703087a76563e21c67d194a9db",
    ("trojan1", 8): "481c593e5861b7b6e3bf4263f55b70d06c8c679a597fdc301090f7da4e7f1577",
    ("trojan1", 33): "510786eef16e0473efbc3320c324b6b04c198da3367c333cc8684423f22c00f1",
    ("trojan2", 1): "7493535aa1aa49ef5ad1fa1f1a4ef4f55c5a68c93304a5115a6f19bdb5855178",
    ("trojan2", 8): "d099f7c0da81c0d739498f7ef3b427e26980e1c870859d224ac52cf60af02f7e",
    ("trojan2", 33): "caaf16de123ed57a35762640d0f7d3f4094c7fc270a2461ca8e67d20f61e6c22",
    ("trojan3", 1): "6744561a1ef6fe6801021a032d0981dc8fb4a8df747f537178449cf442840d92",
    ("trojan3", 8): "f793a607c3db6177f799e45a193c305d8fe8381bd92422607cc4f3e883d82a1f",
    ("trojan3", 33): "bf7d20b4389cfc955d6bc0fb49977e1c0767cb8e505a841953b7b4be90c418bb",
    ("trojan4", 1): "eafbb3dba8f7b6be9400578140493cf51d160a03b7aea7088ea28515b0b5b0e8",
    ("trojan4", 8): "1ae0ced6677d13104ccc23cb840e256d1c6fafaa5927c55d15fb3b21ec0ce4ba",
    ("trojan4", 33): "f8f20bf46e74eb936fa4793215a625aee92320839b00f8dd4f8a474a926d5c23",
    ("a2", 1): "79e0edbed0d0e3d5872917ded66eeaa90fa0bb93986a61953fae0793332d7f60",
    ("a2", 8): "da789e5e12ca5ae918658a5f5d907288ec6b7f8ddfd5c21a62e6205cd7eb342a",
    ("a2", 33): "3c83933e7ca9b855f9e6abaa1e6e59c444eea4884b33d894857aff98c3e4d741",
}
#: Noise-off acquisition of :data:`SUBSET` with Trojan 3 at batch 8.
PINNED_SUBSET = (
    "a565998e30c1af4a2ec04a778bc1c1957e95e140818332185e877d15cf5146c7"
)
#: Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
PINNED_POWER = (
    "0a34390c27440446dca746bb110724ae068b79836315f903334decd84a7e3565"
)


def traces_digest(result, names) -> str:
    """SHA-256 over each named receiver's name, shape and trace bytes."""
    h = hashlib.sha256()
    for name in names:
        trace = np.ascontiguousarray(result.traces[name], dtype=np.float64)
        h.update(name.encode())
        h.update(repr(trace.shape).encode())
        h.update(trace.tobytes())
    return h.hexdigest()


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
        assert traces_digest(result, names) == PINNED[(trojan or "golden", batch)]

    def test_noise_off_coil_subset(self, array_engine):
        result = _acquire(
            array_engine, 8, "trojan3", receivers=SUBSET, include_noise=False
        )
        assert traces_digest(result, SUBSET) == PINNED_SUBSET

    def test_power_monitor_chip(self, power_engine):
        names = tuple(power_engine.chip.receivers)
        assert names == ("sensor", "probe", "power")
        assert power_engine.chip.receivers["power"].sense == "current"
        result = _acquire(power_engine, 8, "trojan2")
        assert traces_digest(result, names) == PINNED_POWER


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
