"""Tests for the structural netlist builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.logic.builder import NetlistBuilder
from repro.logic.simulator import CompiledNetlist
from tests.logic.probes import read, read_bus


def _run_comb(build, inputs):
    """Build a small combinational circuit and evaluate it."""
    b = NetlistBuilder("t")
    pins = {name: b.input(name) for name in inputs}
    outs = build(b, pins)
    sim = CompiledNetlist(b.build())
    batch = len(next(iter(inputs.values())))
    state = sim.reset(
        batch=batch,
        inputs={n: np.asarray(v, dtype=bool) for n, v in inputs.items()},
    )
    return {o: read(sim, state, net) for o, net in outs.items()}, sim, state


def test_adder_bus_matches_integer_addition():
    b = NetlistBuilder("add")
    a_bus = b.input_bus("a", 6)
    b_bus = b.input_bus("b", 6)
    s_bus, carry = b.adder_bus(a_bus, b_bus)
    sim = CompiledNetlist(b.build())
    avals = np.arange(0, 64, 7)
    bvals = np.arange(0, 64, 5)[: len(avals)]
    inputs = {}
    for i in range(6):
        inputs[f"a[{i}]"] = ((avals >> (5 - i)) & 1).astype(bool)
        inputs[f"b[{i}]"] = ((bvals >> (5 - i)) & 1).astype(bool)
    state = sim.reset(batch=len(avals), inputs=inputs)
    total = read_bus(sim, state, s_bus) + (read(sim, state, carry) << 6)
    assert np.array_equal(total, avals + bvals)


def test_decoder_is_one_hot():
    b = NetlistBuilder("dec")
    sel = b.input_bus("s", 3)
    lines = b.decoder(sel)
    sim = CompiledNetlist(b.build())
    vals = np.arange(8)
    inputs = {f"s[{i}]": ((vals >> (2 - i)) & 1).astype(bool) for i in range(3)}
    state = sim.reset(batch=8, inputs=inputs)
    matrix = np.stack([read(sim, state, l) for l in lines])
    assert np.array_equal(matrix.sum(axis=0), np.ones(8))
    assert np.array_equal(np.argmax(matrix, axis=0), vals)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=8, max_size=8))
def test_rom_returns_programmed_words(words):
    b = NetlistBuilder("rom")
    addr = b.input_bus("a", 3)
    out = b.rom(addr, words, 8)
    sim = CompiledNetlist(b.build())
    vals = np.arange(8)
    inputs = {f"a[{i}]": ((vals >> (2 - i)) & 1).astype(bool) for i in range(3)}
    state = sim.reset(batch=8, inputs=inputs)
    assert np.array_equal(read_bus(sim, state, out), np.array(words))


def test_rom_wrong_word_count_rejected():
    b = NetlistBuilder("rom")
    addr = b.input_bus("a", 3)
    with pytest.raises(NetlistError):
        b.rom(addr, [0] * 7, 8)


def test_mux_tree_selects():
    b = NetlistBuilder("mux")
    values = b.input_bus("v", 8)
    sel = b.input_bus("s", 3)
    out = b.mux_tree(values, sel)
    sim = CompiledNetlist(b.build())
    data = 0b10110010
    batch = 8
    sels = np.arange(8)
    inputs = {f"v[{i}]": np.full(batch, bool((data >> (7 - i)) & 1)) for i in range(8)}
    inputs.update(
        {f"s[{i}]": ((sels >> (2 - i)) & 1).astype(bool) for i in range(3)}
    )
    state = sim.reset(batch=batch, inputs=inputs)
    got = read(sim, state, out)
    expected = np.array([bool((data >> (7 - k)) & 1) for k in sels])
    assert np.array_equal(got, expected)


def test_mux_tree_size_mismatch_rejected():
    b = NetlistBuilder("mux")
    values = b.input_bus("v", 6)
    sel = b.input_bus("s", 3)
    with pytest.raises(NetlistError):
        b.mux_tree(values, sel)


def test_counter_counts_and_wraps():
    b = NetlistBuilder("cnt")
    q = b.counter(3)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    seen = []
    for _ in range(10):
        sim.step(state)
        seen.append(int(read_bus(sim, state, q)[0]))
    assert seen == [1, 2, 3, 4, 5, 6, 7, 0, 1, 2]


def test_counter_enable_freezes():
    b = NetlistBuilder("cnt")
    en = b.input("en")
    q = b.counter(3, enable=en)
    sim = CompiledNetlist(b.build())
    state = sim.reset(inputs={"en": np.array([True])})
    for _ in range(3):
        sim.step(state)
    assert int(read_bus(sim, state, q)[0]) == 3
    sim.step(state, {"en": np.array([False])})
    frozen = int(read_bus(sim, state, q)[0])
    for _ in range(5):
        sim.step(state)
    assert int(read_bus(sim, state, q)[0]) == frozen


def test_equals_const_detects_value():
    b = NetlistBuilder("eq")
    bus = b.input_bus("x", 4)
    hit = b.equals_const(bus, 0b1010)
    sim = CompiledNetlist(b.build())
    vals = np.arange(16)
    inputs = {f"x[{i}]": ((vals >> (3 - i)) & 1).astype(bool) for i in range(4)}
    state = sim.reset(batch=16, inputs=inputs)
    got = read(sim, state, hit)
    assert np.array_equal(np.nonzero(got)[0], np.array([0b1010]))


def test_shift_register_delays_stream():
    b = NetlistBuilder("sr")
    din = b.input("d")
    stages = b.shift_register(din, 4)
    sim = CompiledNetlist(b.build())
    state = sim.reset(batch=1)
    pattern = [1, 0, 1, 1, 0, 0, 1, 0]
    seen_last = []
    for bit in pattern:
        sim.step(state, {"d": np.array([bool(bit)])})
        seen_last.append(int(read(sim, state, stages[-1])[0]))
    # Last stage reproduces the input delayed by 4 cycles.
    assert seen_last[4:] == pattern[:4]


def test_const_bus_encodes_value():
    b = NetlistBuilder("c")
    bus = b.const_bus(0b1011, 4)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    assert int(read_bus(sim, state, bus)[0]) == 0b1011


def test_tie_cells_are_shared_within_group():
    b = NetlistBuilder("c")
    n1 = b.const(1)
    n2 = b.const(1)
    assert n1 == n2


def test_in_group_scopes_label():
    b = NetlistBuilder("g", group="outer")
    a = b.input("a")
    b.inv(a)
    with b.in_group("inner"):
        b.inv(a)
    b.inv(a)
    groups = [inst.group for inst in b.netlist.instances.values()]
    assert groups == ["outer", "inner", "outer"]


def test_reduce_tree_rejects_empty():
    b = NetlistBuilder("r")
    with pytest.raises(NetlistError):
        b.reduce_tree("AND2", [])
