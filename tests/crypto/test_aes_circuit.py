"""Gate-level AES vs the FIPS-197 reference, cycle by cycle."""

import numpy as np
import pytest

from repro.crypto import build_aes_circuit
from repro.logic import CompiledNetlist, netlist_stats
from tests.crypto.aes_reference import (
    bits_to_bytes,
    blocks_from_bytes,
    encrypt_block,
    round_states,
)
from tests.logic.probes import read, read_bus


@pytest.fixture(scope="module")
def aes_sim():
    aes = build_aes_circuit()
    return aes, CompiledNetlist(aes.netlist)


def _encrypt(aes, sim, pts, keys, extra_cycles=0):
    batch = pts.shape[0]
    state = sim.reset(batch=batch, inputs=aes.start_inputs(pts, keys))
    for i in range(aes.latency + extra_cycles):
        sim.step(state, aes.idle_inputs(batch) if i == 0 else None)
    return state


def test_matches_reference_on_fips_vector(aes_sim):
    aes, sim = aes_sim
    pt = np.frombuffer(bytes.fromhex("3243f6a8885a308d313198a2e0370734"), np.uint8)
    key = np.frombuffer(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"), np.uint8)
    state = _encrypt(aes, sim, pt[None, :], key[None, :])
    ct = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    assert bytes(ct[0]).hex() == "3925841d02dc09fbdc118597196a0b32"
    assert read(sim, state, aes.done)[0]


def test_matches_reference_on_random_batch(aes_sim):
    aes, sim = aes_sim
    rng = np.random.default_rng(7)
    pts = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    state = _encrypt(aes, sim, pts, keys)
    got = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    expected = blocks_from_bytes(
        [encrypt_block(bytes(p), bytes(k)) for p, k in zip(pts, keys)]
    )
    assert np.array_equal(got, expected)


def test_intermediate_round_states_match_reference(aes_sim):
    """The state register must hold round_states[r] after load + r rounds."""
    aes, sim = aes_sim
    pt = bytes(range(16))
    key = bytes(range(16, 32))
    expected = round_states(pt, key)
    pts = np.frombuffer(pt, np.uint8)[None, :]
    keys = np.frombuffer(key, np.uint8)[None, :]
    state = sim.reset(batch=1, inputs=aes.start_inputs(pts, keys))
    sim.step(state, aes.idle_inputs(1))  # load: initial AddRoundKey
    got = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    assert bytes(got[0]) == expected[0]
    for rnd in range(1, 11):
        sim.step(state)
        got = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
        assert bytes(got[0]) == expected[rnd], f"round {rnd}"


def test_done_pulses_exactly_once(aes_sim):
    aes, sim = aes_sim
    rng = np.random.default_rng(8)
    pts = rng.integers(0, 256, (1, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (1, 16), dtype=np.uint8)
    state = sim.reset(batch=1, inputs=aes.start_inputs(pts, keys))
    done_history = []
    for i in range(aes.latency + 5):
        sim.step(state, aes.idle_inputs(1) if i == 0 else None)
        done_history.append(bool(read(sim, state, aes.done)[0]))
    assert done_history.count(True) == 1
    assert done_history[aes.latency - 1]


def test_ciphertext_holds_after_done(aes_sim):
    aes, sim = aes_sim
    rng = np.random.default_rng(9)
    pts = rng.integers(0, 256, (1, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (1, 16), dtype=np.uint8)
    state = _encrypt(aes, sim, pts, keys, extra_cycles=6)
    ct = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    expected = encrypt_block(bytes(pts[0]), bytes(keys[0]))
    assert bytes(ct[0]) == expected


def test_back_to_back_encryptions(aes_sim):
    """A second start must work without reset in between."""
    aes, sim = aes_sim
    rng = np.random.default_rng(10)
    pts = rng.integers(0, 256, (2, 1, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (2, 1, 16), dtype=np.uint8)
    state = sim.reset(batch=1, inputs=aes.start_inputs(pts[0], keys[0]))
    for i in range(aes.latency):
        sim.step(state, aes.idle_inputs(1) if i == 0 else None)
    first = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    sim.step(state, aes.start_inputs(pts[1], keys[1]))
    sim.step(state, aes.idle_inputs(1))
    for _ in range(aes.latency - 1):
        sim.step(state)
    second = bits_to_bytes(sim.read_bus_bits(state, aes.state_q))
    assert bytes(first[0]) == encrypt_block(bytes(pts[0, 0]), bytes(keys[0, 0]))
    assert bytes(second[0]) == encrypt_block(bytes(pts[1, 0]), bytes(keys[1, 0]))


def test_gate_count_in_paper_class(aes_sim):
    """The paper's AES is 33k gates; ours must be the same class."""
    aes, _sim = aes_sim
    stats = netlist_stats(aes.netlist)
    count = stats.groups["aes"].gate_count
    assert 20_000 <= count <= 45_000
    assert stats.groups["aes"].flop_count >= 256  # state + key registers


def test_clkdiv_free_runs(aes_sim):
    aes, sim = aes_sim
    state = sim.reset(batch=1)
    values = []
    for _ in range(16):
        sim.step(state)
        values.append(int(read_bus(sim, state, aes.clkdiv)[0]))
    assert values == [(k + 1) % 8 for k in range(16)]
