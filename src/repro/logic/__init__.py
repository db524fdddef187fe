"""Gate-level logic substrate.

This subpackage provides everything needed to *be* the circuit under
test: a small 180 nm-flavoured standard-cell library
(:mod:`repro.logic.library`), a netlist data model
(:mod:`repro.logic.netlist`), structural composition helpers
(:mod:`repro.logic.builder`), a batch event-driven logic simulator
(:mod:`repro.logic.simulator`) and switching-activity recorders
(:mod:`repro.logic.activity`).

The AES design, the four digital Trojans and the A2 trigger divider are
all built on top of these primitives; the power and EM models consume
the per-cycle switching activity the simulator reports.
"""

from repro.logic.cells import CellKind, StdCell
from repro.logic.library import LIBRARY, get_cell
from repro.logic.netlist import Instance, Net, Netlist
from repro.logic.builder import NetlistBuilder
from repro.logic.simulator import (
    CompiledNetlist,
    PackedState,
    lane_slices,
    pack_bits,
    unpack_bits,
)
from repro.logic.activity import ActivityAccumulator, ToggleCountRecorder
from repro.logic.stats import NetlistStats, netlist_stats
from repro.logic.timing import TimingReport, analyze_timing

__all__ = [
    "CellKind",
    "StdCell",
    "LIBRARY",
    "get_cell",
    "Instance",
    "Net",
    "Netlist",
    "NetlistBuilder",
    "CompiledNetlist",
    "PackedState",
    "lane_slices",
    "pack_bits",
    "unpack_bits",
    "ActivityAccumulator",
    "ToggleCountRecorder",
    "NetlistStats",
    "netlist_stats",
    "TimingReport",
    "analyze_timing",
]
