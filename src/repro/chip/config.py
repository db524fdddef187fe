"""Chip-level configuration.

A single frozen dataclass collects every knob of the physical build so
experiments can vary one parameter (probe standoff, coil turns, ...)
without touching code.  Defaults model the paper's test chip: 180 nm,
24 MHz core clock (which makes Trojan 1's divide-by-32 carrier exactly
750 kHz), sensor spiral on M6, probe 100 µm above the die.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GHZ, MHZ, MM, NS, UM


@dataclass(frozen=True)
class ChipConfig:
    """Physical/build parameters of the modelled test chip."""

    # ----- clocks and sampling ---------------------------------------
    #: Core clock frequency [Hz].
    f_clk: float = 24 * MHZ
    #: Receiver sampling rate [Hz]; must be an integer multiple of f_clk.
    fs: float = 2.4 * GHZ
    #: Base width of a single switching-current pulse [s].
    pulse_width: float = 0.4 * NS
    #: Per-level switching-time stagger [s] (one gate delay).
    gate_delay: float = 0.12 * NS

    # ----- floorplan / power grid ------------------------------------
    #: Placement density target.
    utilization: float = 0.70
    #: Power-grid tile length [m].
    tile_len: float = 25 * UM
    #: Vertical stripe pitch [m].
    stripe_pitch: float = 150 * UM
    #: Fraction of switching current escaping on-chip/package decap to
    #: the pad ring (see :class:`repro.layout.power_grid.PowerGrid`).
    ring_current_fraction: float = 0.0
    #: Placement shuffle seed.
    placement_seed: int = 7

    # ----- on-chip sensor (Fig. 2b) ----------------------------------
    sensor_turns: int = 12
    sensor_trace_width: float = 4.0 * UM
    sensor_edge_margin: float = 10 * UM

    # ----- optional sensor array (programmable coil grid) ------------
    #: Rows/cols of the sub-coil grid; 0x0 (the default) installs no
    #: array, keeping the single-coil build byte-identical to the
    #: paper's chip.  Any non-zero grid adds ``array.r{r}c{c}``
    #: receiver channels alongside ``sensor``/``probe``.
    sensor_array_rows: int = 0
    sensor_array_cols: int = 0
    #: Turns per sub-coil (tiles are small; 12 full-die turns would
    #: violate pitch >= 2w inside one tile).
    sensor_array_turns: int = 3
    sensor_array_trace_width: float = 2.0 * UM
    sensor_array_edge_margin: float = 4.0 * UM

    # ----- external probe (Fig. 2a) ----------------------------------
    probe_standoff: float = 100 * UM
    probe_radius: float = 1.2 * MM
    probe_turns: int = 8

    # ----- EM solver --------------------------------------------------
    #: Gauss–Legendre order of the on-chip coils' Neumann coupling
    #: integral (the spiral and the array); the external probe keeps
    #: its own order, :data:`repro.em.probe.PROBE_QUADRATURE`.
    coupling_quadrature: int = 3
    #: Mutual inductance between the package/bondwire supply loop and
    #: the *external* probe [H].  At a 100 µm standoff the probe mostly
    #: sees the total chip current circulating through the leadframe —
    #: a large loop the on-chip spiral barely couples to.  Every cell's
    #: charge contributes coherently through this path, which is why
    #: the probe's record-level SNR is decent while its view of a small
    #: localised Trojan is poor.
    package_loop_coupling: float = 1.2e-11

    # ----- optional power-monitor baseline ----------------------------
    #: Install a third receiver, "power": a shunt-based supply-current
    #: monitor (the classical power side channel the paper's related
    #: work compares against).
    include_power_monitor: bool = False
    #: Shunt resistance of the power monitor [ohm].
    power_shunt_ohms: float = 1.0

    @property
    def samples_per_cycle(self) -> int:
        """Receiver samples per clock cycle."""
        ratio = self.fs / self.f_clk
        n = int(round(ratio))
        if abs(ratio - n) > 1e-9:
            raise ValueError(
                f"fs ({self.fs}) must be an integer multiple of f_clk "
                f"({self.f_clk})"
            )
        return n

    @property
    def t_clk(self) -> float:
        """Clock period [s]."""
        return 1.0 / self.f_clk
