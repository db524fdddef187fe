"""SI unit helpers and physical constants.

All quantities inside the library are plain floats in base SI units
(metres, seconds, volts, amperes, farads, henries).  The constants below
make call sites read naturally::

    probe_height = 100 * UM
    clock_period = 1 / (12 * MHZ)

Keeping everything in SI avoids the classic EDA pitfall of mixed
micron/nanometre databases.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Length
# ---------------------------------------------------------------------------
M = 1.0
MM = 1e-3
UM = 1e-6
NM = 1e-9

# ---------------------------------------------------------------------------
# Time / frequency
# ---------------------------------------------------------------------------
S = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9
PS = 1e-12

HZ = 1.0
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

# ---------------------------------------------------------------------------
# Electrical
# ---------------------------------------------------------------------------
V = 1.0
MV = 1e-3
UV = 1e-6

A = 1.0
MA = 1e-3
UA = 1e-6
NA = 1e-9

F = 1.0
PF = 1e-12
FF = 1e-15

OHM = 1.0
KOHM = 1e3

H = 1.0
NH = 1e-9
PH = 1e-12

W = 1.0
MW = 1e-3
UW = 1e-6
NW = 1e-9

# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------
#: Vacuum permeability [H/m].
MU_0 = 4.0 * math.pi * 1e-7

#: Boltzmann constant [J/K].
K_BOLTZMANN = 1.380649e-23

#: Room temperature used throughout the thermal-noise models [K].
ROOM_TEMPERATURE = 300.0


def db(ratio: float) -> float:
    """Convert an amplitude ratio to decibels (``20*log10``).

    This is the paper's Eq. (3): ``SNR_dB = 20 log10(SNR_voltage)``.

    Raises
    ------
    ValueError
        If *ratio* is not strictly positive.
    """
    if ratio <= 0.0:
        raise ValueError(f"amplitude ratio must be > 0, got {ratio!r}")
    return 20.0 * math.log10(ratio)
