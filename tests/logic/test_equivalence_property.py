"""Equivalence checker tests + hypothesis property test of the
simulator against direct Boolean evaluation of random circuits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.logic.builder import NetlistBuilder
from repro.logic.simulator import CompiledNetlist
from tests.logic.equivalence import random_equivalence_check
from tests.logic.probes import read

_OPS = {
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "XOR2": lambda a, b: a ^ b,
    "NAND2": lambda a, b: ~(a & b),
    "NOR2": lambda a, b: ~(a | b),
}


def _sbox_rom(width_tag: str):
    """Two structurally different implementations of the same function."""
    from repro.crypto.aes import SBOX

    b = NetlistBuilder(f"rom_{width_tag}")
    addr = b.input_bus("a", 8)
    out = b.rom(addr, SBOX, 8)
    for i, net in enumerate(out):
        alias = b.buf(net)
        b.netlist.add_net(f"y[{i}]")
        b.netlist.add_instance(
            f"out_buf_{i}", "BUF", {"A": alias, "Y": f"y[{i}]"}
        )
        b.mark_output(f"y[{i}]")
    return b.build()


def test_identical_roms_are_equivalent():
    a = _sbox_rom("a")
    b = _sbox_rom("b")
    report = random_equivalence_check(a, b, n_vectors=128, n_cycles=1)
    assert report.equivalent
    assert "equivalent" in report.format()


def test_mismatch_detected():
    b1 = NetlistBuilder("one")
    x = b1.input("x")
    y = b1.input("y")
    out = b1.and2(x, y)
    b1.netlist.add_net("z")
    b1.netlist.add_instance("ob", "BUF", {"A": out, "Y": "z"})
    b1.mark_output("z")

    b2 = NetlistBuilder("two")
    x2 = b2.input("x")
    y2 = b2.input("y")
    out2 = b2.or2(x2, y2)  # different function
    b2.netlist.add_net("z")
    b2.netlist.add_instance("ob", "BUF", {"A": out2, "Y": "z"})
    b2.mark_output("z")

    report = random_equivalence_check(b1.build(), b2.build(), n_vectors=64)
    assert not report.equivalent
    assert report.mismatches[0].output == "z"
    assert "NOT equivalent" in report.format()


def test_interface_mismatch_rejected():
    b1 = NetlistBuilder("a")
    b1.input("x")
    b2 = NetlistBuilder("b")
    b2.input("different")
    with pytest.raises(NetlistError):
        random_equivalence_check(b1.build(), b2.build())


@st.composite
def random_circuit(draw):
    """A random 4-input combinational circuit as (ops, args) layers."""
    n_gates = draw(st.integers(1, 12))
    gates = []
    for g in range(n_gates):
        op = draw(st.sampled_from(sorted(_OPS)))
        # Inputs can be any primary input (0..3) or earlier gate (4..).
        a = draw(st.integers(0, 3 + g))
        b = draw(st.integers(0, 3 + g))
        gates.append((op, a, b))
    return gates


@settings(max_examples=40, deadline=None)
@given(random_circuit(), st.integers(0, 15))
def test_simulator_matches_direct_evaluation(gates, stimulus):
    """The compiled simulator must agree with straightforward Boolean
    evaluation on arbitrary random circuits."""
    b = NetlistBuilder("rand")
    nets = [b.input(f"i{k}") for k in range(4)]
    for op, x, y in gates:
        nets.append(b.gate(op, nets[x], nets[y]))
    nl = b.build()
    sim = CompiledNetlist(nl)

    bits = [(stimulus >> k) & 1 for k in range(4)]
    inputs = {f"i{k}": np.array([bool(bits[k])]) for k in range(4)}
    state = sim.reset(batch=1, inputs=inputs)

    values = [np.array([bool(v)]) for v in bits]
    for op, x, y in gates:
        values.append(_OPS[op](values[x], values[y]))
    for net, expected in zip(nets[4:], values[4:]):
        assert read(sim, state, net)[0] == expected[0]
