"""Trojan 1 — AM-radio key leaker (paper Section IV-A).

"Trojan 1 leaks the secret information through the AM radio carrier at
a 750 KHz frequency and the leaked information can be demodulated with
a wireless radio receiver."

Structure:

* a frame counter clocked only while the Trojan is active; bit 3 (from
  the LSB) toggles every 16 cycles, giving a square-wave carrier with a
  period of 32 clock cycles — exactly 750 kHz at the chip's 24 MHz
  clock;
* a 128:1 multiplexer tree that taps the AES **key input bus** (stable
  between loads, unlike the round-key register) and walks
  through the key one bit per 4 carrier periods (on-off keying);
* a bank of toggle flops ("antenna drivers") that flip on every carrier
  edge while the current key bit is 1, pumping a strong current burst
  train at 1.5 MHz whose amplitude envelope is the key stream.

The AM receiver the payload tests use recovers the key bits from the
EM trace envelope, proving the payload actually leaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes_circuit import AesCircuit
from repro.errors import TrojanError
from repro.logic.builder import NetlistBuilder
from repro.trojans.base import (
    AnalogTap,
    HardwareTrojan,
    TapMode,
    TrojanKind,
    attach_activation,
)
from repro.units import PF, V

#: Clock cycles per carrier period (24 MHz / 32 = 750 kHz).
CARRIER_DIVIDE = 32

#: Carrier periods per transmitted key bit.
PERIODS_PER_BIT = 4

#: Cycles per transmitted key bit.
CYCLES_PER_BIT = CARRIER_DIVIDE * PERIODS_PER_BIT


@dataclass(frozen=True)
class Trojan1Params:
    """Size/trigger knobs for Trojan 1."""

    #: Number of antenna-driver toggle flops (sets radiated power and
    #: most of the gate count; default lands near the paper's 5 %).
    n_drivers: int = 650
    #: First AES state byte of the 4-byte internal-trigger window.
    match_byte: int = 0
    #: Rare 32-bit value arming the internal trigger.
    match_value: int = 0xA5C396E1
    #: Capacitance of the antenna node the driver bank charges [F].
    #: Every rise moves this charge coherently through one grid path —
    #: the 750 kHz carrier the paper's radio receiver picks up.
    antenna_cap: float = 0.5 * PF
    #: Reset value of the frame counter (frame phase the measurement
    #: campaign happens to catch; bit index = frame_init >> 7).
    frame_init: int = 2 << 7


def attach_trojan1(
    b: NetlistBuilder,
    aes: AesCircuit,
    params: Trojan1Params | None = None,
) -> HardwareTrojan:
    """Attach Trojan 1 to the shared die netlist."""
    params = params or Trojan1Params()
    if params.n_drivers <= 0:
        raise TrojanError(f"n_drivers must be positive, got {params.n_drivers}")
    group = "trojan1"
    with b.in_group(group):
        match_bus = aes.state_q[8 * params.match_byte : 8 * params.match_byte + 32]
        enable_pin, active = attach_activation(
            b, group, match_bus, params.match_value
        )

        # Frame counter: 14 bits cover carrier phase (bits 0-4 from the
        # LSB) and the 7-bit key-bit index (bits 7-13).  The reset value
        # models catching the free-running leaker at an arbitrary frame
        # phase (a real chip is never reset synchronously with the
        # Trojan's transmission).
        frame = b.counter(14, enable=active, init=params.frame_init)
        # Bus is MSB first: the LSB is frame[13].  Counter bit p (from
        # the LSB) has period 2**(p+1) cycles, so the 32-cycle carrier
        # is bit 4 -> bus index 13 - 4 = 9.
        carrier = frame[9]
        bit_index = frame[0:7]  # counter bits 13..7, MSB first

        key_bit = b.mux_tree(aes.key, bit_index)

        # On-off keying: while the current key bit is 1 the driver bank
        # toggles every clock during the carrier's high half-period,
        # radiating current bursts whose envelope is the 750 kHz square
        # carrier gated by the key stream.
        antenna = b.and2(carrier, key_bit)
        for _ in range(params.n_drivers):
            q = b.net("drv_q")
            d = b.xor2(q, antenna)
            b.flop_into(d, q, enable=active)

    # The bank drives one shared antenna node; its charging current is
    # a single coherent analog tap (scattering it over 650 cell sites
    # would let opposite rail directions cancel the carrier).
    tap = AnalogTap(
        net=antenna,
        mode=TapMode.PULSE_ON_RISE,
        amplitude=params.antenna_cap * 1.8 * V,
        gate_by=active,
        group=group,
    )
    return HardwareTrojan(
        name="trojan1",
        group=group,
        kind=TrojanKind.DIGITAL,
        enable_pin=enable_pin,
        active_net=active,
        description="AM-radio key leaker on a 750 kHz carrier",
        monitor_nets={
            "carrier": carrier,
            "antenna": antenna,
            "key_bit": key_bit,
        },
        monitor_buses={"bit_index": bit_index, "frame": frame},
        analog_taps=[tap],
    )
