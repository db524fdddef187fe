"""Multi-channel sensor-array acquisition invariants.

Three contracts gate the array refactor:

* **Single-coil bit-identity** — installing an array must not move a
  single bit of the legacy ``sensor``/``probe`` path: couplings and
  acquired traces on an array chip equal a plain chip's exactly.
* **Solo == multi** — acquiring one array channel alone produces the
  same bits as acquiring the whole grid and selecting that channel
  (per-channel derived RNG streams), with the logic stepped on lane
  words or as bool arrays, and each lane of a wide pass the same bits
  as that campaign acquired alone at batch 1.
* **One simulation pass** — a multi-channel acquire steps the logic
  exactly once, asserted via the ``acquire.cycles`` counter.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.chip.chip as chip_mod
from repro.chip import EncryptionWorkload, GroupMember
from repro.chip.acquire import AcquisitionEngine
from repro.chip.chip import Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import array_scenario
from repro.errors import EmModelError, ExperimentError
from tests.chip.bool_engine import engine_for
from repro.obs import use_metrics

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ROWS, COLS = 2, 2


@pytest.fixture(scope="module")
def array_chip() -> Chip:
    """Same seed as the session ``chip`` fixture, plus a 2x2 array."""
    return Chip.build(
        config=ChipConfig(sensor_array_rows=ROWS, sensor_array_cols=COLS),
        seed=1,
    )


@pytest.fixture(scope="module")
def array_engine(array_chip):
    return AcquisitionEngine(array_chip, array_scenario(ROWS, COLS))


def _acquire(chip, engine, receivers, n_cycles=36, batch=5, trojans=()):
    return engine.acquire(
        EncryptionWorkload(chip.aes, KEY),
        n_cycles=n_cycles,
        batch=batch,
        trojan_enables=trojans,
        receivers=receivers,
        rng_role="array-eq",
    )


class TestChipBuild:
    def test_array_channels_installed(self, array_chip):
        names = tuple(array_chip.sensor_array.channel_names())
        assert array_chip.receiver_groups["array"] == names
        for name in names:
            assert array_chip.receivers[name].group == "array"
        # Legacy receivers stay standalone (shared-RNG) channels.
        assert array_chip.receivers["sensor"].group is None
        assert array_chip.receivers["probe"].group is None
        assert array_chip.receiver_groups["sensor"] == ("sensor",)

    @staticmethod
    def _forbid(monkeypatch, *names):
        """Make each named build stage of :mod:`repro.chip.chip` fail."""
        def reached(*args, **kwargs):
            raise AssertionError("a build stage ran before the grid check")

        for name in names:
            monkeypatch.setattr(chip_mod, name, reached)

    def test_rejects_half_configured_array(self, monkeypatch):
        self._forbid(monkeypatch, "build_aes_circuit")
        with pytest.raises(ExperimentError):
            Chip.build(
                config=ChipConfig(sensor_array_rows=2, sensor_array_cols=0),
                seed=1,
            )

    def test_infeasible_grid_fails_before_placement(self, monkeypatch):
        self._forbid(
            monkeypatch, "place_netlist", "build_power_grid", "CompiledNetlist"
        )
        with pytest.raises(EmModelError):
            Chip.build(
                config=ChipConfig(sensor_array_rows=64, sensor_array_cols=64),
                seed=1,
            )

    def test_single_coil_couplings_bit_identical(self, chip, array_chip):
        for name in ("sensor", "probe"):
            plain, arrayed = chip.receivers[name], array_chip.receivers[name]
            assert np.array_equal(plain.cell_coupling, arrayed.cell_coupling)
            assert plain.resistance == arrayed.resistance
            assert plain.effective_area == arrayed.effective_area


class TestAcquisition:
    def test_single_coil_traces_bit_identical(self, chip, array_chip):
        """The array chip's sensor path replays the plain chip's bits."""
        scenario = array_scenario(ROWS, COLS)
        plain = _acquire(
            chip, AcquisitionEngine(chip, scenario), ("sensor", "probe")
        )
        arrayed = _acquire(
            array_chip,
            AcquisitionEngine(array_chip, scenario),
            ("sensor", "probe"),
        )
        for name in ("sensor", "probe"):
            assert np.array_equal(plain.traces[name], arrayed.traces[name])

    def test_solo_equals_multi_channel(self, array_chip, array_engine):
        channels = array_chip.receiver_groups["array"]
        multi = _acquire(array_chip, array_engine, channels)
        for name in channels:
            solo = _acquire(array_chip, array_engine, (name,))
            assert np.array_equal(solo.traces[name], multi.traces[name]), name

    def test_subset_order_invariance(self, array_chip, array_engine):
        """Array channels derive their own RNG streams, so any subset in
        any order reproduces the same per-channel bits."""
        channels = array_chip.receiver_groups["array"]
        multi = _acquire(array_chip, array_engine, channels)
        subset = _acquire(array_chip, array_engine, channels[::-1][:3])
        for name in subset.traces:
            assert np.array_equal(subset.traces[name], multi.traces[name])

    @pytest.mark.parametrize("kind", ("bool", "packed"))
    def test_backends_bit_identical(self, array_chip, array_engine, kind):
        """The array traces with the logic stepped on ``kind`` equal
        those with it stepped as bool arrays."""
        got = _acquire(
            array_chip,
            engine_for(kind, array_engine),
            array_chip.receiver_groups["array"],
            trojans=("trojan4",),
        )
        ref = _acquire(
            array_chip,
            engine_for("bool", array_engine),
            array_chip.receiver_groups["array"],
            trojans=("trojan4",),
        )
        for name in ref.traces:
            assert np.array_equal(got.traces[name], ref.traces[name]), name

    def test_lane_slice_equals_batch1_acquisition(
        self, array_chip, array_engine
    ):
        """Five one-lane campaigns in one pass, Trojan 4 on the even
        lanes: each lane's array traces equal its batch-1 acquisition."""
        channels = array_chip.receiver_groups["array"]
        members = [
            GroupMember(
                name=f"lane{i}",
                workload=EncryptionWorkload(array_chip.aes, KEY),
                batch=1,
                trojan_enables=("trojan4",) if i % 2 == 0 else (),
                rng_role=f"array-eq/lane{i}",
            )
            for i in range(5)
        ]
        group = array_engine.acquire_group(
            members, n_cycles=36, receivers=channels
        )
        for m in (members[0], members[3], members[4]):
            solo = array_engine.acquire(
                EncryptionWorkload(array_chip.aes, KEY),
                n_cycles=36,
                batch=1,
                trojan_enables=m.trojan_enables,
                receivers=channels,
                rng_role=m.rng_role,
            )
            for name in channels:
                assert np.array_equal(
                    group[m.name].traces[name], solo.traces[name]
                ), (m.name, name)

    def test_multi_channel_is_one_simulation_pass(
        self, array_chip, array_engine
    ):
        channels = array_chip.receiver_groups["array"]
        n_cycles, batch = 36, 5
        with use_metrics() as metrics:
            _acquire(
                array_chip, array_engine, channels,
                n_cycles=n_cycles, batch=batch,
            )
            assert (
                metrics.counter("acquire.cycles").value == n_cycles * batch
            )


class TestArrayScenario:
    def test_name_carries_grid_shape(self):
        assert array_scenario(3, 5).name == "array3x5"

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            array_scenario(0, 4)
