"""The array lowering against the dict-walking Kahn oracle on random
netlists (``hypothesis``).

Random netlists mix combinational, sequential (with and without enable)
and tie cells over one to four primary inputs.  A gate may read any
primary input or the output of any gate created before it, and a
flip-flop may read any net at all, so registers close sequential loops.
The instances are then inserted in a random order, which decouples the
insertion order from the topological order.  Levels, output indices,
the register and tie arrays and every schedule group, order included,
must equal :mod:`tests.logic.kahn_reference`; an injected combinational
loop must raise the same :class:`SimulationError` as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.logic.cells import CellKind
from repro.logic.library import LIBRARY
from repro.logic.netlist import Netlist
from repro.logic.simulator import CompiledNetlist
from tests.logic.kahn_reference import kahn_levels, reference_compile

COMB_CELLS = sorted(
    name for name, c in LIBRARY.items() if c.kind is CellKind.COMBINATIONAL
)
KINDS = ("comb", "comb", "comb", "DFF", "DFFE", "TIE0", "TIE1")


@st.composite
def netlists(draw, loop: bool = False) -> Netlist:
    n_in = draw(st.integers(1, 4))
    n_inst = draw(st.integers(1, 40))
    nets = [f"i{k}" for k in range(n_in)] + [f"n{k}" for k in range(n_inst)]
    specs = []
    for k in range(n_inst):
        kind = draw(st.sampled_from(KINDS))
        cell = LIBRARY[draw(st.sampled_from(COMB_CELLS)) if kind == "comb" else kind]
        # Gates read only earlier nets (the logic stays acyclic);
        # registers read anything.
        reach = n_in + k if kind == "comb" else len(nets)
        pins = {
            pin: nets[draw(st.integers(0, reach - 1))] for pin in cell.inputs
        }
        pins[cell.output] = f"n{k}"
        specs.append([f"g{k}", cell.name, pins])
    comb = [s for s in specs if LIBRARY[s[1]].kind is CellKind.COMBINATIONAL]
    if loop:
        if not comb:
            specs.append(["g_seed", "INV", {"A": "i0", "Y": "n_seed"}])
            nets.append("n_seed")
            comb = [specs[-1]]
        victim = draw(st.sampled_from(comb))
        # Feed the victim's own output back into one of its inputs
        # through a buffer: a two-gate combinational cycle.
        nets.append("n_back")
        specs.append(["g_back", "BUF", {"A": victim[2]["Y"], "Y": "n_back"}])
        pin = draw(st.sampled_from(LIBRARY[victim[1]].inputs))
        victim[2][pin] = "n_back"
    nl = Netlist("random")
    for name in nets:
        if name.startswith("i"):
            nl.add_input(name)
        else:
            nl.add_net(name)
    for k in draw(st.permutations(range(len(specs)))):
        nl.add_instance(*specs[k])
    for inst in nl.sequential_instances():
        if draw(st.booleans()):
            nl.ff_init[inst.name] = True
    return nl


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(netlists())
def test_lowering_matches_kahn_oracle(nl):
    sim = CompiledNetlist(nl)
    ref = reference_compile(nl)
    assert _same(sim.instance_out_idx, ref.instance_out_idx)
    assert _same(sim.instance_levels, ref.instance_levels)
    assert _same(sim.seq_instance_idx, ref.seq_instance_idx)
    assert _same(sim._seq_d_idx, ref.seq_d_idx)
    assert _same(sim._seq_q_idx, ref.seq_q_idx)
    assert _same(sim.seq_enable_idx, ref.seq_enable_idx)
    assert _same(sim._seq_init, ref.seq_init)
    assert _same(sim._tie_idx, ref.tie_idx)
    assert _same(sim._tie_val, ref.tie_val)
    assert len(sim._schedule) == len(ref.schedule)
    for group, (function, in_idx, out_idx) in zip(sim._schedule, ref.schedule):
        assert group.function is function
        assert len(group.in_idx) == len(in_idx)
        for got, want in zip(group.in_idx, in_idx):
            assert _same(got, want)
        assert _same(group.out_idx, out_idx)
    levels = nl.levelize()
    assert levels == kahn_levels(nl)
    # levelize lists the gates in a topological order.
    assert list(levels.values()) == sorted(levels.values())


@settings(max_examples=80, deadline=None)
@given(netlists(loop=True))
def test_injected_loop_raises_like_the_oracle(nl):
    with pytest.raises(SimulationError, match="loop") as oracle:
        kahn_levels(nl)
    with pytest.raises(SimulationError) as lowered:
        CompiledNetlist(nl)
    assert str(lowered.value) == str(oracle.value)
    with pytest.raises(SimulationError) as levelized:
        nl.levelize()
    assert str(levelized.value) == str(oracle.value)
