"""Tests for the power reporter."""

import hashlib

import numpy as np
import pytest

from repro.crypto import build_aes_circuit
from repro.layout.technology import make_tech180
from repro.logic import CompiledNetlist, NetlistBuilder
from repro.power.report import encryption_power_workload, measure_power
from repro.trojans import attach_trojan4
from repro.trojans.t4_power import Trojan4Params

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def power_setup():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    attach_trojan4(b, aes, Trojan4Params(n_toggles=64))
    nl = b.build()
    return nl, aes, CompiledNetlist(nl)


def test_power_report_structure(power_setup):
    nl, aes, sim = power_setup
    report = measure_power(
        nl, sim, make_tech180(), 24e6,
        encryption_power_workload(aes, KEY, n_cycles=48, batch=4),
    )
    assert "aes" in report.groups and "trojan4" in report.groups
    aes_power = report.groups["aes"]
    assert aes_power.dynamic > 0
    assert aes_power.clock > 0
    assert aes_power.leakage > 0
    assert report.total > aes_power.total
    assert "TOTAL" in report.format()


def test_aes_power_in_plausible_180nm_range(power_setup):
    nl, aes, sim = power_setup
    report = measure_power(
        nl, sim, make_tech180(), 24e6,
        encryption_power_workload(aes, KEY, n_cycles=48, batch=4),
    )
    # A 28 k-gate AES at 24 MHz in 180 nm: single-digit milliwatts.
    assert 0.3e-3 < report.groups["aes"].total < 30e-3


def test_dormant_trojan_draws_only_leakage(power_setup):
    nl, aes, sim = power_setup
    report = measure_power(
        nl, sim, make_tech180(), 24e6,
        encryption_power_workload(aes, KEY, n_cycles=48, batch=4),
    )
    t4 = report.groups["trojan4"]
    # Clock-gated and idle: only the (ungated) armed flop clocks, and
    # only the dormant trigger comparator sees data edges.
    assert t4.clock < 0.01 * report.groups["aes"].clock
    assert t4.dynamic < 0.05 * report.groups["aes"].dynamic
    assert t4.leakage > 0
    assert t4.total < 0.05 * report.groups["aes"].total


def test_power_workload_runs_packed_and_pinned(chip, monkeypatch):
    """The standard power workload at batch 8 steps lane words, counts
    toggles and clock enables over its lanes only, and gives the pinned
    bytes, which a bool simulator of the same netlist produced first."""
    from repro.logic.simulator import PackedState

    resets = []
    reset = type(chip.sim).reset

    def spy(self, *args, **kwargs):
        resets.append(reset(self, *args, **kwargs))
        return resets[-1]

    monkeypatch.setattr(type(chip.sim), "reset", spy)
    run = encryption_power_workload(chip.aes, KEY, n_cycles=48, batch=8)
    toggles, clocks, n_cycles, batch = run(chip.sim)
    assert isinstance(resets[-1], PackedState)
    assert (n_cycles, batch) == (48, 8)
    assert hashlib.sha256(toggles.tobytes() + clocks.tobytes()).hexdigest() == (
        "f8adfe1ef1fd100f449a1b925fb159d0a4bbaa73bc482bcf0dec1c727f4f2a3d"
    )
    report = measure_power(
        chip.netlist, chip.sim, make_tech180(), 24e6,
        encryption_power_workload(chip.aes, KEY, n_cycles=48, batch=8),
    )
    assert sorted(report.groups) == [
        "a2", "aes", "trojan1", "trojan2", "trojan3", "trojan4",
    ]
    values = np.array([
        [g.dynamic, g.clock, g.leakage]
        for _, g in sorted(report.groups.items())
    ])
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "7725e2e3f07b3f3caf9334c0f6d43b6bc34b5150154f8a79bcfa3047db631965"
    )
