"""End-to-end Trojan-1 covert channel: key bits out of the EM trace."""

import numpy as np
import pytest

from repro.chip import (
    AcquisitionEngine,
    Chip,
    EncryptionWorkload,
    simulation_scenario,
)
from repro.trojans.t1_am import CYCLES_PER_BIT, Trojan1Params
from tests.trojans.demod import demodulate_am_bits

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def t1_chip():
    return Chip.build(
        seed=1,
        trojans=("trojan1",),
        trojan_params={"trojan1": Trojan1Params(frame_init=0)},
    )


def test_am_key_bits_recovered_from_em_trace(t1_chip):
    chip = t1_chip
    engine = AcquisitionEngine(chip, simulation_scenario())
    n_bits = 12
    result = engine.acquire(
        EncryptionWorkload(chip.aes, KEY, period=12),
        n_cycles=(n_bits + 1) * CYCLES_PER_BIT,
        batch=1,
        trojan_enables=("trojan1",),
        include_noise=False,
        rng_role="am-int",
    )
    recovered = demodulate_am_bits(
        result.traces["sensor"][0],
        fs=chip.config.fs,
        carrier_freq=750e3,
        bit_duration=CYCLES_PER_BIT / chip.config.f_clk,
        n_bits=n_bits,
        start_time=1.0 / chip.config.f_clk,
    )
    expected = [(KEY[i // 8] >> (7 - i % 8)) & 1 for i in range(n_bits)]
    errors = int(np.sum(np.array(expected) != recovered))
    assert errors <= 1, (expected, list(recovered))


def test_am_channel_silent_when_dormant(t1_chip):
    """Without the enable, the same demodulation yields no keyed
    envelope (all-zero or constant decision)."""
    chip = t1_chip
    engine = AcquisitionEngine(chip, simulation_scenario())
    n_bits = 8
    result = engine.acquire(
        EncryptionWorkload(chip.aes, KEY, period=12),
        n_cycles=(n_bits + 1) * CYCLES_PER_BIT,
        batch=1,
        include_noise=False,
        rng_role="am-dormant",
    )
    recovered = demodulate_am_bits(
        result.traces["sensor"][0],
        fs=chip.config.fs,
        carrier_freq=750e3,
        bit_duration=CYCLES_PER_BIT / chip.config.f_clk,
        n_bits=n_bits,
        start_time=1.0 / chip.config.f_clk,
    )
    expected = np.array([(KEY[i // 8] >> (7 - i % 8)) & 1 for i in range(n_bits)])
    matches = int(np.sum(expected == recovered))
    # The dormant chip's envelope carries no key: the decisions must
    # not track the key bits beyond chance.
    assert matches <= 6
