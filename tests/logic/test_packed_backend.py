"""Packed (bit-sliced) representation against the bool one.

The batch picks the representation (bool for one lane, packed from
:data:`~repro.logic.simulator.PACKED_BATCH_THRESHOLD` up), so the tests
that compare both at one batch move the threshold with ``monkeypatch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.logic.builder import NetlistBuilder
from repro.logic.library import LIBRARY
from repro.logic.simulator import (
    PACKED_BATCH_THRESHOLD,
    CompiledNetlist,
    PackedState,
    SimulationState,
    pack_bits,
    packed_words,
    unpack_bits,
)
from tests.logic.representation import THRESHOLD, representation

# ----------------------------------------------------------------------
# pack/unpack primitives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch", (*range(1, 131), 256))
def test_pack_unpack_roundtrip(batch):
    """2-D and 3-D round trips at every batch up to 130; padding bits
    set in the words never leak into the unpacked lanes."""
    rng = np.random.default_rng(batch)
    valid = pack_bits(np.ones(batch, dtype=bool))
    for shape in ((5, batch), (4, 3, batch)):
        values = rng.integers(0, 2, size=shape).astype(bool)
        words = pack_bits(values)
        assert words.shape == shape[:-1] + (packed_words(batch),)
        assert words.dtype == np.uint64
        got = unpack_bits(words | ~valid, batch)
        assert got.shape == shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, values)


def test_unpack_allocates_only_valid_lane_bytes():
    """Unpacking batch 8 from one-word rows touches one byte per row, not
    all 64 lanes (a 64x transient on long clock-enable records)."""
    import tracemalloc

    words = np.zeros((64, 4352, 1), dtype=np.uint64)
    tracemalloc.start()
    try:
        got = unpack_bits(words, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (64, 4352, 8)
    assert peak < 2 * got.nbytes


def test_pack_pads_with_zero_lanes():
    words = pack_bits(np.ones(65, dtype=bool))
    assert words.shape == (2,)
    assert words[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert words[1] == np.uint64(1)  # lanes 65..127 are zero


def test_resolve_backend_threshold_and_env(monkeypatch):
    """The batch picks the representation: bool below the threshold,
    packed from it.  ``resolve_backend`` and its environment override
    are gone, so nothing else decides."""
    nl, _ = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    assert PACKED_BATCH_THRESHOLD == 2
    assert isinstance(sim.reset(batch=1), SimulationState)
    for batch in (2, 4, 8, 63, 64, 65, 4096):
        assert isinstance(sim.reset(batch=batch), PackedState)
    # The retired environment variable is ignored.
    monkeypatch.setenv("REPRO_SIM_BACKEND", "bool")
    assert isinstance(sim.reset(batch=4), PackedState)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "packed")
    assert isinstance(sim.reset(batch=1), SimulationState)
    # The threshold is read at every reset.
    monkeypatch.setattr(THRESHOLD, 1)
    assert isinstance(sim.reset(batch=1), PackedState)
    monkeypatch.setattr(THRESHOLD, 5)
    assert isinstance(sim.reset(batch=4), SimulationState)


def test_reset_takes_no_backend_argument():
    nl, _ = _every_cell_netlist()
    with pytest.raises(TypeError):
        CompiledNetlist(nl).reset(batch=4, backend="bool")


# ----------------------------------------------------------------------
# per-cell equivalence
# ----------------------------------------------------------------------
_COMBINATIONAL = sorted(
    name for name, cell in LIBRARY.items() if cell.function is not None
)


@pytest.mark.parametrize("name", _COMBINATIONAL)
def test_library_cell_packed_equivalence(name):
    """Every combinational cell is lane-safe: run on packed words it
    matches its bool evaluation lane by lane (and MUX2 matches
    ``np.where``), with padding bits set in every input word."""
    cell = LIBRARY[name]
    rng = np.random.default_rng(sum(name.encode()))
    batch = 130  # two full words plus a ragged tail
    pins = [rng.integers(0, 2, size=batch).astype(bool) for _ in range(cell.arity)]
    expected = cell.function(*pins)
    assert expected.dtype == bool
    if name == "MUX2":
        a, b, s = pins
        assert np.array_equal(expected, np.where(s, b, a))
    padding = ~pack_bits(np.ones(batch, dtype=bool))
    words = [pack_bits(p) | padding for p in pins]
    got = unpack_bits(cell.function(*words), batch)
    assert np.array_equal(got, expected)


def test_sequential_and_tie_cells_have_no_function():
    """DFF/DFFE/ties are handled by the simulator, not a cell function."""
    for name in ("DFF", "DFFE", "TIE0", "TIE1"):
        assert LIBRARY[name].function is None


# ----------------------------------------------------------------------
# whole-netlist equivalence
# ----------------------------------------------------------------------
def _every_cell_netlist():
    """A netlist exercising every library cell, including DFFE and ties."""
    b = NetlistBuilder("allcells")
    a = b.input("a")
    c = b.input("c")
    d = b.input("d")
    en = b.input("en")
    one = b.const(1)
    zero = b.const(0)
    nets = [
        b.gate("BUF", a),
        b.gate("INV", c),
        b.gate("NAND2", a, c),
        b.gate("NOR2", c, d),
        b.gate("AND2", a, d),
        b.gate("OR2", a, c),
        b.gate("XOR2", c, d),
        b.gate("XNOR2", a, d),
        b.gate("AND3", a, c, d),
        b.gate("OR3", a, c, one),
        b.gate("NAND3", a, c, d),
        b.gate("NOR3", a, d, zero),
        b.mux2(a, c, d),
        b.gate("AOI21", a, c, d),
        b.gate("OAI21", a, c, d),
    ]
    q_plain = b.dff(nets[6])
    q_en = b.dff(nets[12], enable=en, init=1)
    nets += [q_plain, q_en]
    for n in nets:
        b.mark_output(n)
    return b.build(), nets


def _stimulus(rng, batch, n_cycles):
    return [
        {
            name: rng.integers(0, 2, size=batch).astype(bool)
            for name in ("a", "c", "d", "en")
        }
        for _ in range(n_cycles)
    ]


def _run_both(nl, nets, batch, n_cycles=20, force=None):
    """Drive identical stimulus through both representations at one
    batch; return snapshots."""
    stim = _stimulus(np.random.default_rng(99), batch, n_cycles)
    out = {}
    for name, kind in (("bool", SimulationState), ("packed", PackedState)):
        sim = CompiledNetlist(nl)
        with representation(name):
            state = sim.reset(batch=batch, inputs=stim[0])
        assert isinstance(state, kind)
        toggles, reads = [], []
        for cycle in range(1, n_cycles):
            t = sim.step(state, stim[cycle])
            if isinstance(state, PackedState):
                t = unpack_bits(t, batch)
            if force is not None and cycle == n_cycles // 2:
                sim.force_net(state, force[0], force[1])
            toggles.append(t.copy())
            reads.append(np.stack([sim.read(state, n) for n in nets]))
        out[name] = (
            np.stack(toggles),
            np.stack(reads),
            sim.read_bus(state, nets[:8]),
        )
    return out


@pytest.mark.parametrize("batch", (1, 65, 128))
def test_netlist_packed_matches_bool(batch):
    nl, nets = _every_cell_netlist()
    out = _run_both(nl, nets, batch)
    for got, want in zip(out["packed"], out["bool"]):
        assert np.array_equal(got, want)


def test_force_net_packed_matches_bool():
    nl, nets = _every_cell_netlist()
    forced = np.array([bool(i % 3 == 0) for i in range(65)])
    out = _run_both(nl, nets, 65, force=(nets[0], forced))
    for got, want in zip(out["packed"], out["bool"]):
        assert np.array_equal(got, want)


_ALLCELLS = _every_cell_netlist()


def _cycle_snapshots(sim, nets, stim):
    """Per-cycle toggles (bool) and net reads of one run from reset."""
    batch = stim[0]["a"].size
    state = sim.reset(batch=batch, inputs=stim[0])
    toggles = []
    reads = [np.stack([sim.read(state, n) for n in nets])]
    for inputs in stim[1:]:
        t = sim.step(state, inputs)
        if isinstance(state, PackedState):
            t = unpack_bits(t, batch)
        toggles.append(t)
        reads.append(np.stack([sim.read(state, n) for n in nets]))
    return np.stack(toggles), np.stack(reads)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(2, 130),
    n_cycles=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_lanes_are_independent_single_lane_runs(batch, n_cycles, seed):
    """Each lane of a packed run equals a batch-1 (bool) run fed that
    lane's stimulus, cycle by cycle: toggles, every gate output and the
    register state (the two DFF outputs are among the read nets)."""
    nl, nets = _ALLCELLS
    sim = CompiledNetlist(nl)
    stim = _stimulus(np.random.default_rng(seed), batch, n_cycles)
    toggles, reads = _cycle_snapshots(sim, nets, stim)
    for lane in range(batch):
        lane_stim = [
            {name: v[lane : lane + 1] for name, v in cycle.items()}
            for cycle in stim
        ]
        t1, r1 = _cycle_snapshots(sim, nets, lane_stim)
        assert np.array_equal(toggles[..., lane : lane + 1], t1), lane
        assert np.array_equal(reads[..., lane : lane + 1], r1), lane


def test_read_bus_matches_shift_loop():
    """The bit-weight matmul equals the classic shift-accumulate read."""
    nl, nets = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    rng = np.random.default_rng(5)
    stim = {
        name: rng.integers(0, 2, size=70).astype(bool)
        for name in ("a", "c", "d", "en")
    }
    state = sim.reset(batch=70, inputs=stim)
    assert isinstance(state, PackedState)
    bus = nets[:10]
    expected = np.zeros(70, dtype=np.int64)
    for net in bus:  # MSB first
        expected = (expected << 1) | sim.read(state, net).astype(np.int64)
    assert np.array_equal(sim.read_bus(state, bus), expected)


def test_read_bus_guards_63_bits():
    nl, nets = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    state = sim.reset(batch=2)
    wide = (nets * 5)[:64]
    with pytest.raises(SimulationError, match="63"):
        sim.read_bus(state, wide)

