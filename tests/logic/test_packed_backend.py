"""The simulator's lane words against bool references.

The simulator keeps 64 batch lanes per uint64 word at every batch.  The
pack/unpack primitives and each library cell are checked lane by lane
against bool arrays, and whole netlists against the bool
:class:`~tests.logic.kahn_reference.KahnSimulator`, which walks the
instances one at a time in Kahn order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.logic.builder import NetlistBuilder
from repro.logic.library import LIBRARY
from repro.logic.simulator import (
    CompiledNetlist,
    PackedState,
    pack_bits,
    packed_words,
    unpack_bits,
)
from tests.logic.compound_cells import FUNCTIONS, arity
from tests.logic.kahn_reference import KahnSimulator
from tests.logic.probes import force_net, read, read_bus

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


def test_reset_is_packed_at_every_batch(monkeypatch):
    """Every batch runs on lane words, one word per net for a single
    lane; the retired environment variable is ignored."""
    nl, _ = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    for raw in (None, "bool", "packed"):
        if raw is not None:
            monkeypatch.setenv("REPRO_SIM_BACKEND", raw)
        for batch in (1, 2, 63, 64, 65, 4096):
            state = sim.reset(batch=batch)
            assert isinstance(state, PackedState)
            assert state.words.shape == (sim.num_nets, packed_words(batch))
            assert state.words.dtype == np.uint64
            assert state.batch == batch


def test_reset_takes_no_backend_argument():
    nl, _ = _every_cell_netlist()
    with pytest.raises(TypeError):
        CompiledNetlist(nl).reset(batch=4, backend="bool")


# ----------------------------------------------------------------------
# per-cell equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_library_cell_packed_equivalence(name):
    """Every combinational cell, and every compound of them, is
    lane-safe: run on packed words it matches its bool evaluation lane
    by lane (and MUX2 matches ``np.where``), with padding bits set in
    every input word."""
    function = FUNCTIONS[name]
    rng = np.random.default_rng(sum(name.encode()))
    batch = 130  # two full words plus a ragged tail
    pins = [rng.integers(0, 2, size=batch).astype(bool) for _ in range(arity(name))]
    expected = function(*pins)
    assert expected.dtype == bool
    if name == "MUX2":
        a, b, s = pins
        assert np.array_equal(expected, np.where(s, b, a))
    padding = ~pack_bits(np.ones(batch, dtype=bool))
    words = [pack_bits(p) | padding for p in pins]
    got = unpack_bits(function(*words), batch)
    assert np.array_equal(got, expected)


def test_sequential_and_tie_cells_have_no_function():
    """DFF/DFFE/ties are handled by the simulator, not a cell function."""
    for name in ("DFF", "DFFE", "TIE0", "TIE1"):
        assert LIBRARY[name].function is None


# ----------------------------------------------------------------------
# whole-netlist equivalence
# ----------------------------------------------------------------------
def _every_cell_netlist():
    """A netlist exercising every library cell, including DFFE and ties:
    each combinational cell twice, the second time fed by the first
    round's outputs."""
    b = NetlistBuilder("allcells")
    a, c, d, en = (b.input(name) for name in ("a", "c", "d", "en"))
    combinational = sorted(
        name for name, cell in LIBRARY.items() if cell.function is not None
    )
    sources = [a, c, d, b.const(1), b.const(0)]
    nets = []
    for _round in range(2):
        outs = [
            b.gate(name, *(sources[(k + i) % len(sources)]
                           for i in range(LIBRARY[name].arity)))
            for k, name in enumerate(combinational)
        ]
        nets += outs
        sources = outs + [a, d]
    q_plain = b.dff(nets[6])
    q_en = b.dff(nets[9], enable=en, init=1)
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


def _bus_value(bits):
    """MSB-first bool rows as ``(batch,)`` integers."""
    weights = np.int64(1) << np.arange(len(bits) - 1, -1, -1, dtype=np.int64)
    return weights @ np.asarray(bits, dtype=np.int64)


def _run_both(nl, nets, batch, n_cycles=20, force=None):
    """Drive identical stimulus through the lane-word simulator
    (``"packed"``) and the bool Kahn-order oracle (``"bool"``) at one
    batch; return per-cycle toggles, net reads and a final bus read."""
    stim = _stimulus(np.random.default_rng(99), batch, n_cycles)
    sim = CompiledNetlist(nl)
    state = sim.reset(batch=batch, inputs=stim[0])
    oracle = KahnSimulator(nl)
    oracle.reset(batch, stim[0])
    toggles = {"packed": [], "bool": []}
    reads = {"packed": [], "bool": []}
    for cycle in range(1, n_cycles):
        toggles["packed"].append(
            unpack_bits(sim.step(state, stim[cycle]), batch)
        )
        toggles["bool"].append(oracle.step(stim[cycle]))
        if force is not None and cycle == n_cycles // 2:
            force_net(sim, state, force[0], force[1])
            oracle.force(force[0], force[1])
        reads["packed"].append(np.stack([read(sim, state, n) for n in nets]))
        reads["bool"].append(np.stack([oracle.values[n] for n in nets]))
    bus = {
        "packed": read_bus(sim, state, nets[:8]),
        "bool": _bus_value([oracle.values[n] for n in nets[:8]]),
    }
    return {
        name: (np.stack(toggles[name]), np.stack(reads[name]), bus[name])
        for name in bus
    }


@pytest.mark.parametrize("batch", (1, 65, 128))
def test_netlist_packed_matches_bool(batch):
    nl, nets = _every_cell_netlist()
    out = _run_both(nl, nets, batch)
    for got, want in zip(out["packed"], out["bool"]):
        assert np.array_equal(got, want)


def test_force_net_packed_matches_bool():
    """A forced gate output is re-settled at once; a forced primary
    input re-settles the logic and is the state the next cycle's toggles
    and register captures start from."""
    nl, nets = _every_cell_netlist()
    forced = np.array([bool(i % 3 == 0) for i in range(65)])
    for net in (nets[0], "a", "en"):
        out = _run_both(nl, nets, 65, force=(net, forced))
        for got, want in zip(out["packed"], out["bool"]):
            assert np.array_equal(got, want), net


_ALLCELLS = _every_cell_netlist()


def _cycle_snapshots(sim, nets, stim):
    """Per-cycle toggles (bool) and net reads of one run from reset."""
    batch = stim[0]["a"].size
    state = sim.reset(batch=batch, inputs=stim[0])
    toggles = []
    reads = [np.stack([read(sim, state, n) for n in nets])]
    for inputs in stim[1:]:
        toggles.append(unpack_bits(sim.step(state, inputs), batch))
        reads.append(np.stack([read(sim, state, n) for n in nets]))
    return np.stack(toggles), np.stack(reads)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(2, 130),
    n_cycles=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_lanes_are_independent_single_lane_runs(batch, n_cycles, seed):
    """Each lane of a wide run equals a batch-1 (one-word) run fed that
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
        expected = (expected << 1) | read(sim, state, net).astype(np.int64)
    assert np.array_equal(read_bus(sim, state, bus), expected)


def test_read_bus_guards_63_bits():
    nl, nets = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    state = sim.reset(batch=2)
    wide = (nets * 5)[:64]
    with pytest.raises(SimulationError, match="63"):
        read_bus(sim, state, wide)
