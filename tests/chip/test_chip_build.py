"""Tests for the assembled chip (uses the shared session chip)."""

import numpy as np
import pytest

from repro.chip import Chip
from repro.chip.chip import ALL_TROJANS
from repro.errors import ExperimentError
from repro.logic.stats import netlist_stats
from repro.obs import use_metrics


def test_chip_has_all_trojans(chip):
    assert set(chip.trojans) == set(ALL_TROJANS)


def test_unknown_trojan_rejected():
    with pytest.raises(ExperimentError):
        Chip.build(trojans=("trojanX",))


def test_every_instance_is_placed(chip):
    assert set(chip.placement.positions) == set(chip.netlist.instances)


def test_receivers_installed(chip):
    assert set(chip.receivers) == {"sensor", "probe"}
    assert not chip.receivers["sensor"].external
    assert chip.receivers["probe"].external


def test_cell_coupling_vectors_aligned(chip):
    n = chip.sim.num_instances
    for rcv in chip.receivers.values():
        assert rcv.cell_coupling.shape == (n,)
        assert np.isfinite(rcv.cell_coupling).all()
        assert np.abs(rcv.cell_coupling).max() > 0


def test_sensor_couples_stronger_than_probe_on_average(chip):
    """The paper's core physical claim at the coupling level: the
    sensor's *differential* (on-die) coupling dwarfs the probe's once
    the shared package-loop term is removed."""
    probe = chip.receivers["probe"]
    s = np.abs(chip.receivers["sensor"].cell_coupling).mean()
    p_local = np.abs(probe.cell_coupling - probe.package_coupling).mean()
    assert s > 2 * p_local


def test_tap_couplings_present(chip):
    for rcv in chip.receivers.values():
        assert set(rcv.tap_coupling) == set(range(len(chip.taps)))
        for val in rcv.tap_coupling.values():
            assert np.isfinite(val)


def test_charges_aligned_and_positive(chip):
    n = chip.sim.num_instances
    assert chip.q_switch.shape == (n,)
    assert (chip.q_switch > 0).all()
    assert chip.q_clock.shape == (n,)
    seq_idx = chip.sim.seq_instance_idx
    assert (chip.q_clock[seq_idx] > 0).all()


def test_table1_shape(chip):
    stats = chip.stats()
    aes = stats.groups["aes"].gate_count
    # Relative Trojan sizes must stay in the paper's class.
    assert 4.0 < stats.gate_percentage("trojan1", "aes") < 7.0
    assert 7.0 < stats.gate_percentage("trojan2", "aes") < 10.0
    assert 0.4 < stats.gate_percentage("trojan3", "aes") < 1.2
    assert 7.0 < stats.gate_percentage("trojan4", "aes") < 10.0
    assert stats.area_percentage("a2", "aes") < 0.2


def test_describe_is_informative(chip):
    text = chip.describe()
    assert "cells" in text and "spiral" in text and "probe" in text


def test_golden_chip_excludes_trojan_groups(golden_chip):
    assert golden_chip.trojans == {}
    assert list(netlist_stats(golden_chip.netlist).groups) == ["aes"]


def test_build_records_each_stage_timer_once():
    stages = ("netlist", "compile", "layout", "current_map", "coupling", "charges")
    with use_metrics() as metrics:
        Chip.build(seed=1, trojans=())
    histograms = metrics.snapshot()["histograms"]
    for stage in stages:
        name = f"stage.chip.{stage}.seconds"
        assert histograms[name]["count"] == 1, name
        assert histograms[name]["sum"] > 0, name


def test_sensor_coil_stays_on_top_layer(chip):
    z = chip.tech.layer(chip.tech.sensor_layer).z
    assert np.allclose(chip.sensor.polyline[:, 2], z)
    # No placement/routing uses M6: the power grid stays below it.
    assert chip.grid.seg_start[:, 2].max() < z
