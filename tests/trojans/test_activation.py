"""Tests for the Trojan trigger machinery shared by all payloads."""

import numpy as np
import pytest

from repro.crypto import build_aes_circuit
from repro.errors import TrojanError
from repro.logic import CompiledNetlist, NetlistBuilder
from repro.trojans import attach_trojan1
from repro.trojans.t1_am import Trojan1Params
from tests.crypto.aes_reference import blocks_from_bytes
from tests.logic.probes import read


def trigger_plaintext(key: bytes, match_byte: int, match_value: int) -> bytes:
    """Plaintext that arms a Trojan's internal trigger on this *key*.

    After the initial AddRoundKey the state is ``pt XOR key``, so
    placing ``match_value`` at bytes ``match_byte..match_byte+3`` of
    ``pt XOR key`` fires the comparator one cycle after ``start``.
    """
    if len(key) != 16:
        raise TrojanError(f"key must be 16 bytes, got {len(key)}")
    if not 0 <= match_byte <= 12:
        raise TrojanError(f"match_byte must be in [0, 12], got {match_byte}")
    pattern = bytearray(16)
    for i in range(4):
        pattern[match_byte + i] = (match_value >> (8 * (3 - i))) & 0xFF
    return bytes(p ^ k for p, k in zip(pattern, key))


def _die_with_t1():
    b = NetlistBuilder("die")
    aes = build_aes_circuit(b)
    t1 = attach_trojan1(b, aes, Trojan1Params(n_drivers=4))
    return aes, t1, CompiledNetlist(b.build())


@pytest.fixture(scope="module")
def die():
    return _die_with_t1()


def test_dormant_trojan_stays_inactive(die):
    aes, t1, sim = die
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 256, (2, 16), np.uint8)
    keys = rng.integers(0, 256, (2, 16), np.uint8)
    state = sim.reset(batch=2, inputs=aes.start_inputs(pts, keys))
    for i in range(40):
        sim.step(state, aes.idle_inputs(2) if i == 0 else None)
    assert not read(sim, state, t1.active_net).any()


def test_external_enable_activates(die):
    aes, t1, sim = die
    state = sim.reset(batch=1, inputs={t1.enable_pin: np.array([True])})
    assert read(sim, state, t1.active_net)[0]


def test_internal_trigger_arms_on_crafted_plaintext(die):
    aes, t1, sim = die
    key = bytes(range(16))
    params = Trojan1Params()
    pt = trigger_plaintext(key, params.match_byte, params.match_value)
    pts = blocks_from_bytes([pt])
    keys = blocks_from_bytes([key])
    state = sim.reset(batch=1, inputs=aes.start_inputs(pts, keys))
    sim.step(state, aes.idle_inputs(1))  # load: magic value lands in state
    sim.step(state)  # armed flop captures the match
    assert read(sim, state, t1.active_net)[0]
    # Sticky: still active many cycles later with no enable.
    for _ in range(20):
        sim.step(state)
    assert read(sim, state, t1.active_net)[0]


def test_random_plaintexts_do_not_arm(die):
    aes, t1, sim = die
    rng = np.random.default_rng(3)
    key = bytes(range(16))
    keys = np.tile(np.frombuffer(key, np.uint8), (8, 1))
    state = sim.reset(batch=8)
    for enc in range(6):
        pts = rng.integers(0, 256, (8, 16), np.uint8)
        sim.step(state, aes.start_inputs(pts, keys))
        sim.step(state, aes.idle_inputs(8))
        for _ in range(12):
            sim.step(state)
    assert not read(sim, state, t1.active_net).any()


def test_trigger_plaintext_validation():
    with pytest.raises(TrojanError):
        trigger_plaintext(b"short", 0, 0)
    with pytest.raises(TrojanError):
        trigger_plaintext(bytes(16), 13, 0)


def test_trigger_plaintext_places_pattern():
    key = bytes(range(16))
    pt = trigger_plaintext(key, 4, 0xDEADBEEF)
    state = bytes(p ^ k for p, k in zip(pt, key))
    assert state[4:8] == bytes.fromhex("deadbeef")
