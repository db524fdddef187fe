"""A2-style analog Trojan (paper Sections III-E / IV-D; Yang et al., S&P'16).

The A2 Trojan is six transistors: a capacitor-based charge pump that
sips charge every time a *fast-toggling* trigger wire flips, and fires
its payload once the capacitor crosses a threshold.  In the paper's
test chip the trigger input rides the on-chip clock-division signal.

Digitally the Trojan is almost invisible — Table I sizes it at 0.087 %
of the AES *by area* — so this module contributes:

* two minimum-size cells in group ``"a2"`` as the area/placement proxy
  of the analog structure,
* an :class:`~repro.trojans.base.AnalogTap` that draws a charge packet
  on every toggle of the clock-division wire while triggering is under
  way — the *fast flipping signal* whose extra spectral energy Figure 4
  detects.

The payload itself (the capacitor crossing its threshold and flipping a
victim bit) is not modelled: the paper detects A2 while it is being
triggered, which is what the tap reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes_circuit import AesCircuit
from repro.errors import TrojanError
from repro.logic.builder import NetlistBuilder
from repro.trojans.base import AnalogTap, HardwareTrojan, TapMode, TrojanKind
from repro.units import FF, V


@dataclass(frozen=True)
class A2Params:
    """Electrical knobs of the gated trigger and its charge-pump strokes."""

    #: Clock-division ratio of the gated trigger.  The default mod-3
    #: divider puts the armed trigger's pump strokes at f_clk / 3
    #: (8 MHz on the 24 MHz test chip) — a frequency spot the original
    #: circuit's power-of-two dividers and encryption combs never
    #: occupy, i.e. the paper's "newly added frequency spot" (T != g)
    #: detection case.
    trigger_period_cycles: int = 3
    #: Charge injected per pump stroke [C]; the pump capacitor plus the
    #: payload driver's input swing ~25 fF through the 1.8 V rail.
    charge_per_toggle: float = 25 * FF * 1.8 * V
    #: Capacitance of the gated trigger route [F].  The clock-division
    #: signal is generated next to the AES divider and routed across
    #: the die to the pump, so the armed wire drags a long
    #: heavily-loaded net with it; its charging current, not the
    #: 6-transistor pump alone, is the EM-visible artefact.
    trigger_wire_cap: float = 0.18e-12


def attach_a2(
    b: NetlistBuilder,
    aes: AesCircuit,
    params: A2Params | None = None,
) -> HardwareTrojan:
    """Attach the A2 analog Trojan to the shared die netlist."""
    params = params or A2Params()
    if not aes.clkdiv:
        raise TrojanError("AES circuit exposes no clock-division bus")
    n = params.trigger_period_cycles
    if n < 2:
        raise TrojanError(f"trigger period must be >= 2 cycles, got {n}")
    group = "a2"
    with b.in_group(group):
        enable_pin = b.input("a2_en")
        # The trigger wire is *quiet until the attack*: a tiny gated
        # mod-N clock divider (clock-enabled by the attacker) drives the
        # pump only while triggering is under way ("when the A2-style
        # Trojans are being triggered, the fast flipping signals will
        # result in extra frequency spots or increased amplitude").
        width = max(1, (n - 1).bit_length())
        cnt = [b.net("a2_cnt") for _ in range(width)]
        wrap = b.equals_const(cnt, n - 1)
        one = b.const_bus(1, width)
        inc, _carry = b.adder_bus(cnt, one)
        zero = b.const_bus(0, width)
        nxt = b.mux_bus(inc, zero, wrap)
        for d, q in zip(nxt, cnt):
            b.flop_into(d, q, enable=enable_pin)
        trigger_wire = wrap
        # Area proxy of the 6-transistor analog cell: two minimum cells
        # hanging off the trigger wire (they also load it realistically).
        sense = b.inv(trigger_wire)
        b.inv(sense)

    tap = AnalogTap(
        net=trigger_wire,
        mode=TapMode.PULSE_ON_RISE,
        amplitude=params.charge_per_toggle + params.trigger_wire_cap * 1.8,
        gate_by=enable_pin,
        group=group,
        spread=True,
    )
    return HardwareTrojan(
        name="a2",
        group=group,
        kind=TrojanKind.ANALOG,
        enable_pin=enable_pin,
        active_net=enable_pin,
        description="A2-style analog charge-pump Trojan on a gated clock divider",
        monitor_nets={"trigger_wire": trigger_wire},
        analog_taps=[tap],
        metadata={
            "trigger_period_cycles": n,
            "charge_per_toggle": params.charge_per_toggle,
        },
    )
