"""Functional tests proving each Trojan's payload actually leaks.

Each Trojan is attached to a real AES die (small driver banks to keep
the netlists light) and driven by the logic simulator; the leaked
streams are recovered by the receivers in :mod:`tests.trojans.demod`.
"""

import numpy as np
import pytest

from repro.crypto import build_aes_circuit
from repro.logic import CompiledNetlist, NetlistBuilder
from repro.trojans import (
    attach_trojan1,
    attach_trojan2,
    attach_trojan3,
    attach_trojan4,
)
from repro.trojans.t1_am import CYCLES_PER_BIT, Trojan1Params
from repro.trojans.t2_leakage import Trojan2Params
from repro.trojans.t3_cdma import CHIPS_PER_BIT, LFSR_TAPS, LFSR_WIDTH
from repro.trojans.t4_power import Trojan4Params
from tests.logic.probes import read
from tests.trojans.demod import (
    despread_cdma_bits,
    leakage_symbol_bits,
    lfsr_sequence,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def _key_bits(key: bytes) -> list[int]:
    return [(key[i // 8] >> (7 - i % 8)) & 1 for i in range(128)]


def _run(sim, aes, trojan, cycles, record):
    """Enable the trojan, hold the key on the bus, record nets per cycle."""
    keys = np.tile(np.frombuffer(KEY, np.uint8), (1, 1))
    pts = np.zeros((1, 16), np.uint8)
    inputs = aes.start_inputs(pts, keys)
    inputs[aes.start] = np.array([False])  # key applied, no encryption
    inputs[trojan.enable_pin] = np.array([True])
    state = sim.reset(batch=1, inputs=inputs)
    log = {label: [read(sim, state, net)[0]] for label, net in record.items()}
    for _ in range(cycles):
        sim.step(state)
        for label, net in record.items():
            log[label].append(read(sim, state, net)[0])
    return {k: np.array(v, dtype=np.uint8) for k, v in log.items()}


@pytest.fixture(scope="module")
def t1_die():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    t1 = attach_trojan1(b, aes, Trojan1Params(n_drivers=4, frame_init=0))
    return aes, t1, CompiledNetlist(b.build())


def test_t1_antenna_transmits_key_ook(t1_die):
    aes, t1, sim = t1_die
    n_bits = 10
    log = _run(
        sim, aes, t1, n_bits * CYCLES_PER_BIT + 2,
        {"antenna": t1.monitor_nets["antenna"]},
    )
    ant = log["antenna"][1:]  # drop the reset sample
    bits = []
    for k in range(n_bits):
        window = ant[k * CYCLES_PER_BIT : (k + 1) * CYCLES_PER_BIT]
        bits.append(1 if window.mean() > 0.1 else 0)
    assert bits == _key_bits(KEY)[:n_bits]


def test_t1_carrier_period_is_32_cycles(t1_die):
    aes, t1, sim = t1_die
    log = _run(sim, aes, t1, 128, {"carrier": t1.monitor_nets["carrier"]})
    carrier = log["carrier"]
    edges = np.nonzero(np.diff(carrier))[0]
    assert (np.diff(edges) == 16).all()  # half-period 16 -> 750 kHz @ 24 MHz


@pytest.fixture(scope="module")
def t2_die():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    t2 = attach_trojan2(b, aes, Trojan2Params(depth=8))
    return aes, t2, CompiledNetlist(b.build())


def test_t2_leak_net_carries_key_stream(t2_die):
    aes, t2, sim = t2_die
    log = _run(sim, aes, t2, 80, {"leak": t2.monitor_nets["leak"]})
    # leak stage 1 reproduces key bit (t - 2) after the 2-stage delay.
    got = leakage_symbol_bits(log["leak"], symbol_cycles=1, n_bits=40, phase=2)
    assert list(got) == _key_bits(KEY)[:40]


def test_t2_has_leakage_tap(t2_die):
    _aes, t2, _sim = t2_die
    assert len(t2.analog_taps) == 1
    tap = t2.analog_taps[0]
    assert tap.amplitude > 0
    assert tap.gate_by == t2.active_net


@pytest.fixture(scope="module")
def t3_die():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    t3 = attach_trojan3(b, aes)
    return aes, t3, CompiledNetlist(b.build())


def test_t3_despreads_to_key(t3_die):
    aes, t3, sim = t3_die
    n_bits = 4
    cycles = n_bits * CHIPS_PER_BIT + 4
    log = _run(sim, aes, t3, cycles, {"chip": t3.monitor_nets["chip"]})
    # chip_q lags the XOR by one cycle; PRN output starts at the seed.
    chips = log["chip"][1 : 1 + n_bits * CHIPS_PER_BIT]
    prn = lfsr_sequence(LFSR_WIDTH, LFSR_TAPS, 0xACE1, chips.size)
    bits = despread_cdma_bits(chips, prn, CHIPS_PER_BIT)
    assert list(bits) == _key_bits(KEY)[:n_bits]


def test_t3_prn_matches_software_replay(t3_die):
    aes, t3, sim = t3_die
    log = _run(sim, aes, t3, 64, {"prn": t3.monitor_nets["prn"]})
    replay = lfsr_sequence(LFSR_WIDTH, LFSR_TAPS, 0xACE1, 64)
    assert np.array_equal(log["prn"][:64], replay)


@pytest.fixture(scope="module")
def t4_die():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    t4 = attach_trojan4(b, aes, Trojan4Params(n_toggles=16))
    return aes, t4, CompiledNetlist(b.build())


def test_t4_bank_toggles_when_active(t4_die):
    aes, t4, sim = t4_die
    log = _run(sim, aes, t4, 16, {"q": t4.monitor_nets["toggle0"]})
    # The bank flips every other cycle.
    assert 4 <= np.abs(np.diff(log["q"].astype(int))).sum() <= 12


def test_t4_bank_silent_when_dormant(t4_die):
    aes, t4, sim = t4_die
    state = sim.reset(batch=1)
    values = []
    for _ in range(16):
        sim.step(state)
        values.append(int(read(sim, state, t4.monitor_nets["toggle0"])[0]))
    assert len(set(values)) == 1
