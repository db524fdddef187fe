"""Extra builder tests: flop_into, register buses, counter init."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.logic.builder import NetlistBuilder
from repro.logic.simulator import CompiledNetlist
from tests.logic.probes import read, read_bus


def test_flop_into_drives_preexisting_net():
    b = NetlistBuilder("f")
    q = b.netlist.add_net("state_q").name
    d = b.inv(q)  # feedback through the pre-declared net
    b.flop_into(d, q)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    values = []
    for _ in range(4):
        sim.step(state)
        values.append(int(read(sim, state, q)[0]))
    assert values == [1, 0, 1, 0]


def test_flop_into_with_init():
    b = NetlistBuilder("f")
    q = b.netlist.add_net("q").name
    b.flop_into(b.buf(q), q, init=1)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    assert read(sim, state, q)[0]


def test_counter_init_offsets_sequence():
    b = NetlistBuilder("c")
    q = b.counter(4, init=13)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    seen = [int(read_bus(sim, state, q)[0])]
    for _ in range(4):
        sim.step(state)
        seen.append(int(read_bus(sim, state, q)[0]))
    assert seen == [13, 14, 15, 0, 1]


def test_counter_init_out_of_range():
    b = NetlistBuilder("c")
    with pytest.raises(NetlistError):
        b.counter(3, init=8)


def test_mux_bus_selects_whole_bus():
    b = NetlistBuilder("m")
    a = b.const_bus(0b0011, 4)
    c = b.const_bus(0b1100, 4)
    sel = b.input("sel")
    out = b.mux_bus(a, c, sel)
    sim = CompiledNetlist(b.build())
    state = sim.reset(batch=2, inputs={"sel": np.array([False, True])})
    got = read_bus(sim, state, out)
    assert list(got) == [0b0011, 0b1100]


def test_xor_bus_width_mismatch():
    b = NetlistBuilder("x")
    a = b.input_bus("a", 4)
    c = b.input_bus("c", 3)
    with pytest.raises(NetlistError):
        b.xor_bus(a, c)


def test_adder_bus_carry_out():
    b = NetlistBuilder("a")
    x = b.const_bus(0b111, 3)
    y = b.const_bus(0b001, 3)
    s, carry = b.adder_bus(x, y)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    assert int(read_bus(sim, state, s)[0]) == 0
    assert read(sim, state, carry)[0]


def test_gate_arity_check():
    b = NetlistBuilder("g")
    a = b.input("a")
    with pytest.raises(NetlistError):
        b.gate("AND2", a)
