"""Tests for the netlist data model."""

import pytest

from repro.errors import NetlistError, SimulationError
from repro.logic.netlist import INPUT_DRIVER, Netlist
from repro.logic.stats import netlist_stats


def _tiny() -> Netlist:
    nl = Netlist("tiny")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_net("y")
    nl.add_instance("g1", "AND2", {"A": "a", "B": "b", "Y": "y"}, group="core")
    nl.mark_output("y")
    return nl


def test_basic_construction():
    nl = _tiny()
    assert nl.num_instances == 1
    assert nl.num_nets == 3
    assert nl.nets["a"].driver == INPUT_DRIVER
    assert nl.nets["y"].driver == "g1"
    assert nl.nets["a"].loads == [("g1", "A")]


def test_duplicate_net_rejected():
    nl = Netlist("x")
    nl.add_net("n")
    with pytest.raises(NetlistError):
        nl.add_net("n")


def test_duplicate_instance_rejected():
    nl = _tiny()
    nl.add_net("y2")
    with pytest.raises(NetlistError):
        nl.add_instance("g1", "AND2", {"A": "a", "B": "b", "Y": "y2"})


def test_multiple_drivers_rejected():
    nl = _tiny()
    with pytest.raises(NetlistError):
        nl.add_instance("g2", "OR2", {"A": "a", "B": "b", "Y": "y"})


def test_wrong_pin_set_rejected():
    nl = Netlist("x")
    nl.add_input("a")
    nl.add_net("y")
    with pytest.raises(NetlistError):
        nl.add_instance("g", "INV", {"IN": "a", "Y": "y"})


def test_unknown_net_rejected():
    nl = Netlist("x")
    nl.add_net("y")
    with pytest.raises(NetlistError):
        nl.add_instance("g", "INV", {"A": "ghost", "Y": "y"})


def test_validate_flags_undriven_net():
    nl = Netlist("x")
    nl.add_net("floating")
    with pytest.raises(NetlistError, match="undriven"):
        nl.validate()


def test_mark_output_unknown_net():
    nl = Netlist("x")
    with pytest.raises(NetlistError):
        nl.mark_output("nope")


def test_mark_output_twice_rejected():
    nl = _tiny()
    with pytest.raises(NetlistError):
        nl.mark_output("y")


def test_levelize_orders_dependencies():
    nl = Netlist("chain")
    nl.add_input("a")
    for name in ("n1", "n2", "n3"):
        nl.add_net(name)
    nl.add_instance("i1", "INV", {"A": "a", "Y": "n1"})
    nl.add_instance("i2", "INV", {"A": "n1", "Y": "n2"})
    nl.add_instance("i3", "INV", {"A": "n2", "Y": "n3"})
    levels = nl.levelize()
    assert levels == {"i1": 0, "i2": 1, "i3": 2}


def test_levelize_detects_combinational_loop():
    nl = Netlist("loop")
    nl.add_net("p")
    nl.add_net("q")
    nl.add_instance("i1", "INV", {"A": "p", "Y": "q"})
    nl.add_instance("i2", "INV", {"A": "q", "Y": "p"})
    with pytest.raises(SimulationError, match="loop"):
        nl.levelize()


def test_flop_breaks_loop():
    nl = Netlist("seqloop")
    nl.add_net("q")
    nl.add_net("d")
    nl.add_instance("inv", "INV", {"A": "q", "Y": "d"})
    nl.add_instance("ff", "DFF", {"D": "d", "Q": "q"})
    levels = nl.levelize()  # must not raise
    assert levels == {"inv": 0}


def test_group_queries():
    nl = _tiny()
    stats = netlist_stats(nl)
    assert list(stats.groups) == ["core"]
    assert stats.groups["core"].gate_count == 1
    assert stats.groups["core"].area > 0
    assert [i.name for i in nl.iter_instances("core")] == list(nl.instances)
    assert list(nl.iter_instances("other")) == []


def test_sequential_and_combinational_partitions():
    nl = _tiny()
    nl.add_net("q")
    nl.add_instance("ff", "DFF", {"D": "y", "Q": "q"})
    assert [i.name for i in nl.sequential_instances()] == ["ff"]
    assert list(nl.levelize()) == ["g1"]
