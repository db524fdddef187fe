"""Hardware-Trojan generators.

Re-implementations of the paper's five Trojans (Section IV-A), each a
netlist generator that attaches to the shared AES die and registers the
analog current taps its payload needs:

* **Trojan 1** (:mod:`~repro.trojans.t1_am`) — leaks the key over an AM
  radio carrier at 750 kHz.
* **Trojan 2** (:mod:`~repro.trojans.t2_leakage`) — leaks the key
  through a conditional leakage current (shift register + 2 inverters).
* **Trojan 3** (:mod:`~repro.trojans.t3_cdma`) — leaks the key over a
  CDMA channel spread by an LFSR PRNG; smallest Trojan.
* **Trojan 4** (:mod:`~repro.trojans.t4_power`) — degrades performance
  by toggling a large register bank.
* **A2** (:mod:`~repro.trojans.a2`) — analog charge-pump Trojan whose
  fast-flipping trigger rides the on-chip clock-division signal.

Each Trojan is dormant after reset (all its flops are clock-gated by
the activation signal) and activates via an internal state-match
trigger or the external per-Trojan enable pin the paper adds for
manageable experiments.
"""

from repro.trojans.base import (
    AnalogTap,
    HardwareTrojan,
    TapMode,
    TrojanKind,
    attach_activation,
)
from repro.trojans.t1_am import attach_trojan1
from repro.trojans.t2_leakage import attach_trojan2
from repro.trojans.t3_cdma import attach_trojan3
from repro.trojans.t4_power import attach_trojan4
from repro.trojans.a2 import attach_a2

__all__ = [
    "AnalogTap",
    "HardwareTrojan",
    "TapMode",
    "TrojanKind",
    "attach_activation",
    "attach_trojan1",
    "attach_trojan2",
    "attach_trojan3",
    "attach_trojan4",
    "attach_a2",
]
