"""The vectorised charge accounting against the per-instance loop.

:func:`~repro.power.charges.switching_charges` adds every net's k-th
load pin in one step for k = 0, 1, ...; each charge must still equal
:mod:`tests.power.charge_oracle`'s walk over ``Net.loads`` byte for
byte — on the seed-1 chips (the default, the 4x4-array and the golden
die) and on random netlists (``hypothesis``) that include one instance
reading a net on two pins and nets that drive no load.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.chip import Chip, ChipConfig
from repro.layout.technology import make_tech180
from repro.logic.netlist import Netlist
from repro.power.charges import clock_charges, switching_charges
from tests.logic.test_lowering_property import netlists
from tests.power.charge_oracle import clock_charges_loop, switching_charges_loop


def _assert_matches_oracle(netlist: Netlist, tech) -> None:
    lowered = netlist.lower()
    names = list(netlist.instances)
    for got, want in (
        (switching_charges(lowered, tech), switching_charges_loop(netlist, names, tech)),
        (clock_charges(lowered, tech), clock_charges_loop(netlist, names, tech)),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def array_chip() -> Chip:
    return Chip.build(
        config=ChipConfig(sensor_array_rows=4, sensor_array_cols=4), seed=1
    )


@pytest.mark.parametrize("which", ["chip", "array_chip", "golden_chip"])
def test_chip_charges_equal_the_loop(which, request):
    chip = request.getfixturevalue(which)
    _assert_matches_oracle(chip.netlist, chip.tech)
    # The chip bills the charges in the compiled instance order.
    assert np.array_equal(
        chip.q_switch,
        switching_charges_loop(chip.netlist, chip.sim.instance_names, chip.tech),
    )


@settings(max_examples=60, deadline=None)
@given(nl=netlists())
def test_random_netlist_charges_equal_the_loop(nl):
    first = nl.inputs[0]
    nl.add_net("n_twice")
    nl.add_instance("g_twice", "XOR2", {"A": first, "B": first, "Y": "n_twice"})
    nl.add_net("n_idle")
    nl.add_instance("g_idle", "INV", {"A": "n_twice", "Y": "n_idle"})
    assert nl.nets["n_idle"].fanout == 0
    _assert_matches_oracle(nl, make_tech180())
