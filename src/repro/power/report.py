"""Power reporting — a PrimeTime-PX-lite for the generated designs.

Combines toggle statistics from a simulation run with the per-cell
charge model into dynamic/clock/leakage power per instance group, so
the chip's power budget (and each Trojan's overhead, which the paper's
related work frets about) can be reported directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.layout.technology import Technology
from repro.logic.netlist import Netlist
from repro.logic.simulator import CompiledNetlist, lane_counts
from repro.power.charges import clock_charges, switching_charges


@dataclass
class GroupPower:
    """Power breakdown of one instance group [W]."""

    group: str
    dynamic: float
    clock: float
    leakage: float

    @property
    def total(self) -> float:
        return self.dynamic + self.clock + self.leakage


@dataclass
class PowerReport:
    """Per-group and total power of one workload run."""

    groups: dict[str, GroupPower]
    f_clk: float
    cycles: int

    @property
    def total(self) -> float:
        return sum(g.total for g in self.groups.values())

    def overhead_percent(self, group: str, reference: str = "aes") -> float:
        """One group's power as a percentage of another's."""
        ref = self.groups[reference].total
        if ref == 0:
            raise ZeroDivisionError(f"group {reference!r} draws no power")
        return 100.0 * self.groups[group].total / ref

    def format(self) -> str:
        lines = [
            f"{'group':<10} {'dynamic':>10} {'clock':>10} {'leakage':>10}"
            f" {'total':>10}   [mW]"
        ]
        for name in sorted(self.groups):
            g = self.groups[name]
            lines.append(
                f"{name:<10} {g.dynamic * 1e3:>10.3f} {g.clock * 1e3:>10.3f}"
                f" {g.leakage * 1e3:>10.3f} {g.total * 1e3:>10.3f}"
            )
        lines.append(f"{'TOTAL':<10} {'':>10} {'':>10} {'':>10} "
                     f"{self.total * 1e3:>10.3f}")
        return "\n".join(lines)


def measure_power(
    netlist: Netlist,
    sim: CompiledNetlist,
    tech: Technology,
    f_clk: float,
    run_cycles,
) -> PowerReport:
    """Run a workload and report per-group power.

    Parameters
    ----------
    netlist, sim, tech:
        The design, its compiled form, and the process data.
    f_clk:
        Clock frequency [Hz].
    run_cycles:
        Callable ``run_cycles(sim) -> (toggle_counts, clock_counts,
        n_cycles, batch)`` driving the workload; see
        :func:`encryption_power_workload` for the standard one.
    """
    toggle_counts, clock_counts, n_cycles, batch = run_cycles(sim)
    if n_cycles <= 0 or batch <= 0:
        raise SimulationError("workload reported no cycles")
    names = sim.instance_names
    q_sw = switching_charges(netlist, names, tech)
    q_clk = clock_charges(netlist, names, tech)

    denom = n_cycles * batch
    dyn_power = toggle_counts / denom * q_sw * tech.vdd * f_clk
    clk_power = clock_counts / denom * q_clk * tech.vdd * f_clk

    groups: dict[str, GroupPower] = {}
    for i, name in enumerate(names):
        inst = netlist.instances[name]
        g = groups.get(inst.group)
        if g is None:
            g = GroupPower(group=inst.group, dynamic=0.0, clock=0.0, leakage=0.0)
            groups[inst.group] = g
        g.dynamic += float(dyn_power[i])
        g.clock += float(clk_power[i])
        g.leakage += inst.cell.leakage * tech.vdd
    return PowerReport(groups=groups, f_clk=f_clk, cycles=n_cycles)


def encryption_power_workload(aes, key: bytes, n_cycles: int = 96, batch: int = 8):
    """Standard workload driver for :func:`measure_power`."""

    def run(sim: CompiledNetlist):
        from repro.crypto.encoding import random_blocks
        from repro.rng import derive

        rng = derive(0, "power-report")
        keys = np.tile(np.frombuffer(key, np.uint8), (batch, 1))
        state = sim.reset(
            batch=batch,
            inputs=aes.start_inputs(random_blocks(rng, batch), keys),
        )
        toggles = np.zeros(sim.num_instances, dtype=np.float64)
        clocks = np.zeros(sim.num_instances, dtype=np.float64)
        for k in range(1, n_cycles + 1):
            en = sim.clock_enable_values(state)
            clocks[sim.seq_instance_idx] += lane_counts(en, batch)
            phase = k % 12
            if phase == 0:
                step_inputs = aes.start_inputs(random_blocks(rng, batch), keys)
            elif phase == 1:
                step_inputs = aes.idle_inputs(batch)
            else:
                step_inputs = None
            toggles += lane_counts(sim.step(state, step_inputs), batch)
        return toggles, clocks, n_cycles, batch

    return run
