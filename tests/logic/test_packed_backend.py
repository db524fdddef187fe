"""Packed (bit-sliced) backend equivalence against the bool backend."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.logic.builder import NetlistBuilder
from repro.logic.cells import packed_function
from repro.logic.library import LIBRARY
from repro.logic.simulator import (
    BACKEND_ENV_VAR,
    PACKED_BATCH_THRESHOLD,
    CompiledNetlist,
    PackedState,
    pack_bits,
    packed_words,
    resolve_backend,
    unpack_bits,
)

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
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert resolve_backend(PACKED_BATCH_THRESHOLD - 1) == "bool"
    assert resolve_backend(PACKED_BATCH_THRESHOLD) == "packed"
    # ``auto`` is bool for a single lane and packed from batch 2 up.
    assert resolve_backend(1, backend="auto") == "bool"
    for batch in (2, 8, 63, 64, 4096):
        assert resolve_backend(batch) == "packed"
    monkeypatch.setenv(BACKEND_ENV_VAR, "bool")
    assert resolve_backend(4096) == "bool"
    monkeypatch.setenv(BACKEND_ENV_VAR, "packed")
    assert resolve_backend(1) == "packed"
    # An explicit argument beats the environment.
    assert resolve_backend(1, backend="bool") == "bool"
    monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
    with pytest.raises(SimulationError, match="bogus"):
        resolve_backend(64)


# ----------------------------------------------------------------------
# per-cell equivalence
# ----------------------------------------------------------------------
_COMBINATIONAL = sorted(
    name for name, cell in LIBRARY.items() if cell.function is not None
)


@pytest.mark.parametrize("name", _COMBINATIONAL)
def test_library_cell_packed_equivalence(name):
    """Every combinational cell's packed evaluation matches lane-by-lane."""
    cell = LIBRARY[name]
    pfn = packed_function(cell.function)
    assert pfn is not None, f"{name} has no packed evaluation"
    rng = np.random.default_rng(hash(name) & 0xFFFF)
    batch = 130  # two full words plus a ragged tail
    pins = [rng.integers(0, 2, size=batch).astype(bool) for _ in range(cell.arity)]
    expected = cell.function(*pins)
    got = unpack_bits(pfn(*[pack_bits(p) for p in pins]), batch)
    assert np.array_equal(got, expected)


def test_sequential_and_tie_cells_have_no_function():
    """DFF/DFFE/ties are handled by the simulator, not packed_function."""
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


def _run_both(nl, nets, batch, n_cycles=20, force=None):
    """Drive identical stimulus through both backends; return snapshots."""
    rng = np.random.default_rng(99)
    stim = [
        {
            name: rng.integers(0, 2, size=batch).astype(bool)
            for name in ("a", "c", "d", "en")
        }
        for _ in range(n_cycles)
    ]
    out = {}
    for backend in ("bool", "packed"):
        sim = CompiledNetlist(nl)
        state = sim.reset(batch=batch, inputs=stim[0], backend=backend)
        if backend == "packed":
            assert isinstance(state, PackedState)
        toggles, reads = [], []
        for cycle in range(1, n_cycles):
            t = sim.step(state, stim[cycle])
            if isinstance(state, PackedState):
                t = unpack_bits(t, batch)
            if force is not None and cycle == n_cycles // 2:
                sim.force_net(state, force[0], force[1])
            toggles.append(t.copy())
            reads.append(np.stack([sim.read(state, n) for n in nets]))
        out[backend] = (
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


def test_read_bus_matches_shift_loop():
    """The bit-weight matmul equals the classic shift-accumulate read."""
    nl, nets = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    rng = np.random.default_rng(5)
    stim = {
        name: rng.integers(0, 2, size=70).astype(bool)
        for name in ("a", "c", "d", "en")
    }
    state = sim.reset(batch=70, inputs=stim, backend="packed")
    bus = nets[:10]
    expected = np.zeros(70, dtype=np.int64)
    for net in bus:  # MSB first
        expected = (expected << 1) | sim.read(state, net).astype(np.int64)
    assert np.array_equal(sim.read_bus(state, bus), expected)


def test_read_bus_guards_63_bits():
    nl, nets = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    state = sim.reset(batch=2, backend="packed")
    wide = (nets * 5)[:64]
    with pytest.raises(SimulationError, match="63"):
        sim.read_bus(state, wide)


def test_packed_reset_refuses_unsupported_cell():
    """A netlist with a non-lane-safe function cannot run packed."""
    nl, _ = _every_cell_netlist()
    sim = CompiledNetlist(nl)
    sim._packed_functions = [None] * len(sim._packed_functions)
    with pytest.raises(SimulationError, match="packed"):
        sim.reset(batch=64, backend="packed")
    # The bool backend remains available.
    sim.reset(batch=64, backend="bool")
