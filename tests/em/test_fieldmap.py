"""Tests for surface EM field maps and Trojan localisation."""

import hashlib
import json

import numpy as np
import pytest

from repro.chip import EncryptionWorkload
from repro.em.fieldmap import (
    FieldMap,
    average_cell_activity,
    field_map_from_activity,
)
from repro.errors import EmModelError

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def test_fieldmap_render_and_hotspot():
    xs = np.linspace(0, 1, 8)
    ys = np.linspace(0, 1, 8)
    mag = np.zeros((8, 8))
    mag[2, 5] = 1.0
    fm = FieldMap(xs=xs, ys=ys, magnitude=mag)
    hx, hy = fm.hotspot()
    assert hx == pytest.approx(xs[5])
    assert hy == pytest.approx(ys[2])
    art = fm.render(width=8, height=8)
    assert "@" in art and len(art.splitlines()) == 8


def test_hotspot_tie_breaks_on_lowest_flat_index():
    xs = np.linspace(0, 1, 6)
    ys = np.linspace(0, 1, 6)
    mag = np.zeros((6, 6))
    # Four-way tie: the bottom-most row, then left-most column, wins.
    for iy, ix in [(1, 4), (3, 1), (1, 2), (4, 4)]:
        mag[iy, ix] = 2.0
    fm = FieldMap(xs=xs, ys=ys, magnitude=mag)
    assert fm.hotspot() == (float(xs[2]), float(ys[1]))


def test_fieldmap_payload_round_trip():
    # The payload rides inside JSON artifacts: its float64 values must
    # come back bit for bit.
    xs = np.linspace(0, 1e-3, 5)
    ys = np.linspace(0, 2e-3, 4)
    mag = np.arange(20, dtype=np.float64).reshape(4, 5) * 1e-9
    fm = FieldMap(xs=xs, ys=ys, magnitude=mag)
    back = json.loads(json.dumps(fm.as_payload()))
    assert sorted(back) == ["magnitude", "xs", "ys"]
    np.testing.assert_array_equal(back["xs"], xs)
    np.testing.assert_array_equal(back["ys"], ys)
    np.testing.assert_array_equal(back["magnitude"], mag)


def test_fieldmap_region_mean():
    from repro.layout.geometry import Rect

    xs = np.linspace(0, 1, 10)
    ys = np.linspace(0, 1, 10)
    mag = np.outer(np.ones(10), xs)  # grows to the right
    fm = FieldMap(xs=xs, ys=ys, magnitude=mag)
    left = fm.region_mean(Rect(0.0, 0.0, 0.4, 1.0))
    right = fm.region_mean(Rect(0.6, 0.0, 1.0, 1.0))
    assert right > left
    with pytest.raises(EmModelError):
        fm.region_mean(Rect(2.0, 2.0, 3.0, 3.0))


def test_average_cell_activity(chip):
    wl = EncryptionWorkload(chip.aes, KEY, period=12)
    activity = average_cell_activity(chip, wl, n_cycles=24, batch=2)
    assert activity.shape == (chip.sim.num_instances,)
    assert activity.max() <= 1.0 + 1e-12
    assert activity.mean() > 0.01  # the AES is busy


def test_average_cell_activity_runs_packed_and_pinned(chip, monkeypatch):
    """Field maps step lane words at batch 4 and give the pinned bytes,
    which a bool simulator of the same netlist produced first."""
    from repro.logic.simulator import PackedState

    resets = []
    reset = type(chip.sim).reset

    def spy(self, *args, **kwargs):
        resets.append(reset(self, *args, **kwargs))
        return resets[-1]

    monkeypatch.setattr(type(chip.sim), "reset", spy)
    pins = {
        (): "65beffea4b2b1d814687502376c732af"
            "8a54ac01b751daadaacbcd2a3f6d6adc",
        ("trojan4",): "7c48103f0e9c0ab937f522f9a25a6aca"
                      "74b7accd9c883f1b8ed9fb8ee01ca48f",
    }
    for trojans, pin in pins.items():
        activity = average_cell_activity(
            chip, EncryptionWorkload(chip.aes, KEY, period=12),
            n_cycles=24, batch=4, trojan_enables=trojans,
        )
        assert isinstance(resets[-1], PackedState)
        assert hashlib.sha256(activity.tobytes()).hexdigest() == pin


def test_field_map_activity_validation(chip):
    with pytest.raises(EmModelError):
        field_map_from_activity(chip, np.ones(3))


def test_trojan4_lights_up_its_region(chip):
    """Location awareness: T4's activation raises the field over its
    own floorplan region more than anywhere else."""
    wl = EncryptionWorkload(chip.aes, KEY, period=12)
    golden_act = average_cell_activity(chip, wl, n_cycles=24, batch=2)
    wl2 = EncryptionWorkload(chip.aes, KEY, period=12)
    active_act = average_cell_activity(
        chip, wl2, n_cycles=24, batch=2, trojan_enables=("trojan4",)
    )
    golden = field_map_from_activity(chip, golden_act, grid=24)
    active = field_map_from_activity(chip, active_act, grid=24)
    diff = FieldMap(
        xs=golden.xs,
        ys=golden.ys,
        magnitude=np.abs(active.magnitude - golden.magnitude),
    )
    t4_rect = chip.floorplan.regions["trojan4"].rect
    aes_rect = chip.floorplan.regions["aes"].rect
    assert diff.region_mean(t4_rect) > 3 * diff.region_mean(aes_rect)
    hx, hy = diff.hotspot()
    assert t4_rect.contains(hx, hy, tol=30e-6)
