"""Shared Trojan infrastructure: descriptors, analog taps, triggers.

A :class:`HardwareTrojan` bundles everything the rest of the pipeline
needs to know about one attached Trojan: its instance group (for
Table I accounting and floorplanning), its external enable pin, the
nets worth monitoring in tests, and the :class:`AnalogTap` list through
which non-gate currents (leakage paths, charge pumps) are injected into
the EM synthesis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TrojanError
from repro.logic.builder import Bus, NetlistBuilder
from repro.units import NS


class TrojanKind(enum.Enum):
    """Digital Trojans are pure netlist additions; analog ones also
    carry transistor-level behaviour outside the cell library."""

    DIGITAL = "digital"
    ANALOG = "analog"


class TapMode(enum.Enum):
    """How an :class:`AnalogTap` converts a digital net into current."""

    #: A charge packet is drawn every time the net toggles.
    PULSE_ON_TOGGLE = "pulse_on_toggle"
    #: A charge packet is drawn on rising edges only (a diode-connected
    #: charge pump conducts on one polarity — the A2 case).
    PULSE_ON_RISE = "pulse_on_rise"
    #: A static current flows while the net is low (T2's leakage path).
    CURRENT_WHEN_LOW = "current_when_low"
    #: A static current flows while the net is high.
    CURRENT_WHEN_HIGH = "current_when_high"


@dataclass(frozen=True)
class AnalogTap:
    """A non-gate current source attached to a digital net.

    Parameters
    ----------
    net:
        Net whose digital value controls the current.
    mode:
        Conversion mode, see :class:`TapMode`.
    amplitude:
        Static current [A] for level modes, or charge-per-toggle [C]
        for :attr:`TapMode.PULSE_ON_TOGGLE`.
    gate_by:
        Optional primary-input name that must be 1 for the tap to carry
        any current (the external Trojan enable).
    rise_time:
        Current edge rate for level modes [s]; sets how much of the
        switching energy lands in-band.
    group:
        Instance group whose placement region locates this current
        physically (the tap radiates from that region's centroid).
    spread:
        True when the tap's current flows through a die-spanning net
        (e.g. A2's long gated trigger route); the tap then couples like
        a source at the die centre instead of at one cell.
    """

    net: str
    mode: TapMode
    amplitude: float
    gate_by: str | None = None
    rise_time: float = 2 * NS
    group: str = ""
    spread: bool = False
    #: Optional net whose driver cell locates this tap (when the
    #: radiating current loop sits at the *source* of a routed signal
    #: rather than at the observed net's driver).
    position_net: str | None = None

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise TrojanError(f"tap amplitude must be >= 0, got {self.amplitude}")
        if self.rise_time <= 0:
            raise TrojanError(f"tap rise time must be > 0, got {self.rise_time}")


@dataclass
class HardwareTrojan:
    """Descriptor of one attached Trojan."""

    name: str
    group: str
    kind: TrojanKind
    enable_pin: str
    active_net: str
    description: str
    monitor_nets: dict[str, str] = field(default_factory=dict)
    monitor_buses: dict[str, Bus] = field(default_factory=dict)
    analog_taps: list[AnalogTap] = field(default_factory=list)
    #: Free-form facts about the attachment (e.g. A2's divider bit)
    #: that experiment drivers need.
    metadata: dict = field(default_factory=dict)


def attach_activation(
    b: NetlistBuilder,
    name: str,
    match_bus: Bus,
    match_value: int,
) -> tuple[str, str]:
    """Build the dual trigger shared by all digital Trojans.

    The Trojan arms either through its *internal* stealthy trigger — a
    sticky comparator that fires when *match_bus* (a 32-bit slice of
    the AES state) takes the rare value *match_value* — or through the
    *external* per-Trojan enable pin the paper adds so each payload can
    be activated "in a more manageable way".

    The 32-bit match makes spontaneous arming astronomically unlikely
    (p = 2^-32 per cycle), which is what keeps the Trojan stealthy at
    test time; the attacker, knowing the key, arms it deliberately by
    submitting the plaintext ``match_pattern XOR key`` so the magic
    value appears in the state register after the initial AddRoundKey.

    Returns ``(enable_pin_name, active_net)``.  ``active_net`` stays
    high once armed (sticky) and is the clock-enable of every flop in
    the Trojan, so a dormant Trojan draws no dynamic current at all.
    """
    if len(match_bus) != 32:
        raise TrojanError(
            f"internal trigger needs a 32-bit match bus, got {len(match_bus)}"
        )
    enable_pin = b.input(f"{name}_en")
    match = b.equals_const(match_bus, match_value)
    armed_q = b.net(f"{name}_armed")
    armed_d = b.or2(match, armed_q)
    b.flop_into(armed_d, armed_q)
    active = b.or2(enable_pin, armed_q)
    return enable_pin, active
