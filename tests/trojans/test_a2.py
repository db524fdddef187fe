"""Tests for the A2 analog Trojan (gated trigger and its analog tap)."""

import numpy as np
import pytest

from repro.crypto import build_aes_circuit
from repro.errors import TrojanError
from repro.logic import CompiledNetlist, NetlistBuilder
from repro.trojans import attach_a2
from repro.trojans.a2 import A2Params
from repro.trojans.base import TapMode
from tests.crypto.aes_reference import bits_to_bytes, encrypt_block
from tests.logic.probes import force_net, read


@pytest.fixture(scope="module")
def a2_die():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    a2 = attach_a2(b, aes)
    return aes, a2, CompiledNetlist(b.build())


def test_trigger_wire_quiet_until_enabled(a2_die):
    aes, a2, sim = a2_die
    wire = a2.monitor_nets["trigger_wire"]
    state = sim.reset(batch=1)
    values = []
    for _ in range(24):
        sim.step(state)
        values.append(int(read(sim, state, wire)[0]))
    assert set(values) == {0}, "dormant trigger must not flip"


def test_trigger_wire_pulses_at_f_clk_over_3(a2_die):
    aes, a2, sim = a2_die
    wire = a2.monitor_nets["trigger_wire"]
    state = sim.reset(batch=1, inputs={a2.enable_pin: np.array([True])})
    values = []
    for _ in range(30):
        sim.step(state)
        values.append(int(read(sim, state, wire)[0]))
    rises = np.nonzero(np.diff(values) > 0)[0]
    assert len(rises) >= 8
    assert (np.diff(rises) == 3).all(), "mod-3 divider period"


def test_a2_tap_is_rise_mode_and_gated(a2_die):
    _aes, a2, _sim = a2_die
    assert len(a2.analog_taps) == 1
    tap = a2.analog_taps[0]
    assert tap.mode is TapMode.PULSE_ON_RISE
    assert tap.gate_by == a2.enable_pin
    assert tap.amplitude > 0
    assert a2.metadata["trigger_period_cycles"] == 3


def test_a2_payload_fault_injection(a2_die):
    """Once the pump fires, the payload flips a victim bit: the chip's
    ciphertext corrupts (demonstrated via force_net fault injection)."""
    aes, a2, sim = a2_die
    rng = np.random.default_rng(4)
    pt = rng.integers(0, 256, (1, 16), np.uint8)
    key = rng.integers(0, 256, (1, 16), np.uint8)
    state = sim.reset(batch=1, inputs=aes.start_inputs(pt, key))
    for i in range(aes.latency - 1):
        sim.step(state, aes.idle_inputs(1) if i == 0 else None)
    # Payload fires during the final round: flip one state bit.
    force_net(sim, state, aes.state_q[0], ~read(sim, state, aes.state_q[0]))
    sim.step(state)
    ct = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    good = encrypt_block(bytes(pt[0]), bytes(key[0]))
    assert bytes(ct[0]) != good


def test_a2_params_validation():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    with pytest.raises(TrojanError):
        attach_a2(b, aes, A2Params(trigger_period_cycles=1))
