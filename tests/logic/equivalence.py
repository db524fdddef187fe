"""Simulation-based equivalence checking.

A lightweight stand-in for formal combinational equivalence checking:
two netlists with the same primary-input/-output names are driven with
the same random vectors (plus directed corner vectors) and their
outputs compared cycle by cycle.  Not a proof — but with a few hundred
vectors it catches every bug the generators have ever produced.  It is
a test oracle: the tests use it to cross-validate independently-built
implementations (e.g. two ways of constructing the same S-box).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetlistError
from repro.logic.netlist import Netlist
from repro.logic.simulator import CompiledNetlist
from repro.rng import derive
from tests.logic.probes import read


@dataclass
class Mismatch:
    """One observed output divergence."""

    cycle: int
    output: str
    vector_index: int
    value_a: bool
    value_b: bool


@dataclass
class EquivalenceReport:
    """Outcome of a random-simulation equivalence run."""

    vectors: int
    cycles: int
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        if self.equivalent:
            return (
                f"equivalent over {self.vectors} vectors x "
                f"{self.cycles} cycles"
            )
        first = self.mismatches[0]
        return (
            f"NOT equivalent: {len(self.mismatches)} mismatches; first at "
            f"cycle {first.cycle}, output {first.output!r} "
            f"({first.value_a} vs {first.value_b})"
        )


def random_equivalence_check(
    a: Netlist,
    b: Netlist,
    n_vectors: int = 256,
    n_cycles: int = 4,
    seed: int = 0,
    max_mismatches: int = 16,
) -> EquivalenceReport:
    """Compare two netlists on random stimuli.

    Both netlists must expose identical primary-input and
    primary-output name sets.

    Raises
    ------
    NetlistError
        If the interfaces differ.
    """
    if set(a.inputs) != set(b.inputs):
        only_a = sorted(set(a.inputs) - set(b.inputs))[:4]
        only_b = sorted(set(b.inputs) - set(a.inputs))[:4]
        raise NetlistError(
            f"input mismatch: only-in-A {only_a}, only-in-B {only_b}"
        )
    if set(a.outputs) != set(b.outputs):
        raise NetlistError(
            f"output sets differ: {sorted(set(a.outputs) ^ set(b.outputs))[:6]}"
        )
    sim_a = CompiledNetlist(a)
    sim_b = CompiledNetlist(b)
    rng = derive(seed, "equivalence")

    # Random vectors plus the all-zeros / all-ones corners.
    stim = rng.integers(0, 2, size=(n_vectors, len(a.inputs))).astype(bool)
    if n_vectors >= 2:
        stim[0] = False
        stim[1] = True

    inputs = {
        name: stim[:, i] for i, name in enumerate(a.inputs)
    }
    state_a = sim_a.reset(batch=n_vectors, inputs=inputs)
    state_b = sim_b.reset(batch=n_vectors, inputs=inputs)

    report = EquivalenceReport(vectors=n_vectors, cycles=n_cycles)

    def compare(cycle: int) -> None:
        for out in a.outputs:
            va = read(sim_a, state_a, out)
            vb = read(sim_b, state_b, out)
            bad = np.nonzero(va != vb)[0]
            for idx in bad[: max_mismatches - len(report.mismatches)]:
                report.mismatches.append(
                    Mismatch(
                        cycle=cycle,
                        output=out,
                        vector_index=int(idx),
                        value_a=bool(va[idx]),
                        value_b=bool(vb[idx]),
                    )
                )

    compare(0)
    for cycle in range(1, n_cycles + 1):
        if len(report.mismatches) >= max_mismatches:
            break
        fresh = rng.integers(0, 2, size=(n_vectors, len(a.inputs))).astype(bool)
        step_inputs = {
            name: fresh[:, i] for i, name in enumerate(a.inputs)
        }
        sim_a.step(state_a, step_inputs)
        sim_b.step(state_b, step_inputs)
        compare(cycle)
    return report
