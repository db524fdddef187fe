"""Tests for the vectorised cycle-based simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.logic.builder import NetlistBuilder
from repro.logic.simulator import CompiledNetlist, unpack_bits
from tests.logic.probes import force_net, read, read_bus


def _xor_chain():
    b = NetlistBuilder("x")
    a = b.input("a")
    c = b.input("b")
    y = b.xor2(a, c)
    q = b.dff(y)
    b.mark_output(q)
    return b.build(), y, q


def test_reset_settles_combinational():
    nl, y, _q = _xor_chain()
    sim = CompiledNetlist(nl)
    state = sim.reset(
        batch=2, inputs={"a": np.array([1, 0], bool), "b": np.array([0, 0], bool)}
    )
    assert np.array_equal(read(sim, state, y), np.array([True, False]))


def test_flop_captures_on_edge_not_reset():
    nl, _y, q = _xor_chain()
    sim = CompiledNetlist(nl)
    state = sim.reset(
        batch=1, inputs={"a": np.array([True]), "b": np.array([False])}
    )
    assert not read(sim, state, q)[0]
    sim.step(state)
    assert read(sim, state, q)[0]


def test_input_applied_after_capture():
    """step() captures the PREVIOUS cycle's D, then applies new inputs."""
    nl, _y, q = _xor_chain()
    sim = CompiledNetlist(nl)
    state = sim.reset(
        batch=1, inputs={"a": np.array([True]), "b": np.array([False])}
    )
    # New input a=0 arrives with this step; the flop still captures the
    # old settled value (1).
    sim.step(state, {"a": np.array([False])})
    assert read(sim, state, q)[0]
    sim.step(state)
    assert not read(sim, state, q)[0]


def test_toggle_matrix_shape_and_content():
    """Toggles are lane words ``(n_inst, 1)`` that unpack to the
    ``(n_inst, batch)`` matrix, at one lane as at three."""
    nl, _y, _q = _xor_chain()
    sim = CompiledNetlist(nl)
    xor = sim.instance_index[nl.nets[_y].driver]
    a, b = np.array([1, 0, 1], bool), np.array([0, 0, 1], bool)
    for lanes in (slice(0, 3), slice(0, 1), slice(1, 2)):
        batch = len(a[lanes])
        state = sim.reset(batch=batch)
        toggles = sim.step(state, {"a": a[lanes], "b": b[lanes]})
        assert toggles.shape == (sim.num_instances, 1)
        assert toggles.dtype == np.uint64
        toggles = unpack_bits(toggles, batch)
        assert toggles.shape == (sim.num_instances, batch)
        assert np.array_equal(
            toggles[xor], np.array([True, False, False])[lanes]
        )


def test_dffe_holds_when_disabled():
    b = NetlistBuilder("e")
    d = b.input("d")
    en = b.input("en")
    q = b.dff(d, enable=en)
    sim = CompiledNetlist(b.build())
    state = sim.reset(
        batch=1, inputs={"d": np.array([True]), "en": np.array([True])}
    )
    sim.step(state, {"en": np.array([False]), "d": np.array([False])})
    assert read(sim, state, q)[0]  # captured while enabled
    sim.step(state)
    assert read(sim, state, q)[0]  # held while disabled


def test_ff_init_values_applied():
    b = NetlistBuilder("i")
    q1 = b.dff(b.const(0), init=1)
    q0 = b.dff(b.const(1), init=0)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    assert read(sim, state, q1)[0]
    assert not read(sim, state, q0)[0]


def test_unknown_input_rejected():
    nl, _y, _q = _xor_chain()
    sim = CompiledNetlist(nl)
    state = sim.reset()
    with pytest.raises(SimulationError):
        sim.step(state, {"ghost": np.array([True])})


def test_wrong_input_shape_rejected():
    nl, _y, _q = _xor_chain()
    sim = CompiledNetlist(nl)
    state = sim.reset(batch=2)
    with pytest.raises(SimulationError):
        sim.step(state, {"a": np.array([True, False, True])})


def test_scalar_input_broadcasts():
    nl, y, _q = _xor_chain()
    sim = CompiledNetlist(nl)
    state = sim.reset(batch=4, inputs={"a": True, "b": False})
    assert read(sim, state, y).all()


def test_zero_batch_rejected():
    nl, _y, _q = _xor_chain()
    sim = CompiledNetlist(nl)
    with pytest.raises(SimulationError):
        sim.reset(batch=0)


def test_read_bus_width_limit():
    b = NetlistBuilder("w")
    bus = b.input_bus("x", 64)
    sim = CompiledNetlist(b.build())
    state = sim.reset()
    with pytest.raises(SimulationError):
        read_bus(sim, state, bus)
    assert sim.read_bus_bits(state, bus).shape == (64, 1)


def test_force_net_propagates():
    b = NetlistBuilder("f")
    a = b.input("a")
    y = b.inv(a)
    sim = CompiledNetlist(b.build())
    state = sim.reset(inputs={"a": np.array([False])})
    assert read(sim, state, y)[0]
    force_net(sim, state, a, True)
    assert not read(sim, state, y)[0]


def test_output_values_tracks_instances():
    b = NetlistBuilder("ov")
    a = b.input("a")
    b.inv(a)
    sim = CompiledNetlist(b.build())
    state = sim.reset(inputs={"a": np.array([False])})
    vals = sim.output_values(state)
    assert vals.shape == (1, 1)
    assert vals[0, 0]  # INV of 0


def test_clock_enable_values():
    b = NetlistBuilder("ce")
    d = b.input("d")
    en = b.input("en")
    b.dff(d)  # always clocked
    b.dff(d, enable=en)
    sim = CompiledNetlist(b.build())
    en = np.array([True, False])
    for lanes in (slice(0, 2), slice(0, 1), slice(1, 2)):
        batch = len(en[lanes])
        state = sim.reset(
            batch=batch,
            inputs={"d": np.zeros(batch, bool), "en": en[lanes]},
        )
        ce = sim.clock_enable_values(state)
        assert ce.shape == (2, 1)
        ce = unpack_bits(ce, batch)
        assert ce.shape == (2, batch)
        assert ce[0].all()  # plain DFF always enabled
        assert np.array_equal(ce[1], en[lanes])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_batched_equals_sequential_simulation(a_val, b_val):
    """One batched run must equal two independent runs (no cross-talk)."""
    b = NetlistBuilder("p")
    xa = b.input_bus("xa", 16)
    xb = b.input_bus("xb", 16)
    s, carry = b.adder_bus(xa, xb)
    q = [b.dff(d) for d in s]
    sim = CompiledNetlist(b.build())

    def run(batch_vals):
        inputs = {}
        av = np.array([v[0] for v in batch_vals])
        bv = np.array([v[1] for v in batch_vals])
        for i in range(16):
            inputs[f"xa[{i}]"] = ((av >> (15 - i)) & 1).astype(bool)
            inputs[f"xb[{i}]"] = ((bv >> (15 - i)) & 1).astype(bool)
        state = sim.reset(batch=len(batch_vals), inputs=inputs)
        sim.step(state)
        return read_bus(sim, state, q)

    together = run([(a_val, b_val), (b_val, a_val)])
    alone0 = run([(a_val, b_val)])
    alone1 = run([(b_val, a_val)])
    assert together[0] == alone0[0]
    assert together[1] == alone1[0]
    assert together[0] == (a_val + b_val) % 65536
