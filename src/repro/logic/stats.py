"""Netlist statistics — the machinery behind the paper's Table I.

Table I reports each Trojan's gate count and its size relative to the
33 k-gate AES.  :func:`netlist_stats` computes gate counts, cell-type
histograms, areas and leakage per instance group so the benchmark can
print the same table from *our* generated netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.netlist import Netlist


@dataclass
class GroupStats:
    """Aggregate figures for one instance group."""

    group: str
    gate_count: int = 0
    flop_count: int = 0
    area: float = 0.0
    leakage: float = 0.0
    cell_histogram: dict[str, int] = field(default_factory=dict)


@dataclass
class NetlistStats:
    """Per-group and total statistics of a netlist."""

    name: str
    groups: dict[str, GroupStats]

    def gate_percentage(self, group: str, reference: str) -> float:
        """Gate count of *group* as a percentage of *reference*'s count.

        This is exactly how Table I expresses Trojan sizes (Trojan gates
        over AES gates, not over the whole chip).
        """
        ref = self.groups[reference].gate_count
        if ref == 0:
            raise ZeroDivisionError(f"reference group {reference!r} has no gates")
        return 100.0 * self.groups[group].gate_count / ref

    def area_percentage(self, group: str, reference: str) -> float:
        """Area of *group* relative to *reference*, in percent.

        Table I sizes the A2 Trojan by *area* because a 6-transistor
        analog cell has no meaningful gate count.
        """
        ref = self.groups[reference].area
        if ref == 0.0:
            raise ZeroDivisionError(f"reference group {reference!r} has no area")
        return 100.0 * self.groups[group].area / ref


def netlist_stats(netlist: Netlist) -> NetlistStats:
    """Compute per-group statistics of *netlist*."""
    groups: dict[str, GroupStats] = {}
    for inst in netlist.instances.values():
        stats = groups.get(inst.group)
        if stats is None:
            stats = GroupStats(group=inst.group)
            groups[inst.group] = stats
        stats.gate_count += 1
        if inst.cell.is_sequential:
            stats.flop_count += 1
        stats.area += inst.cell.area
        stats.leakage += inst.cell.leakage
        hist = stats.cell_histogram
        hist[inst.cell.name] = hist.get(inst.cell.name, 0) + 1
    return NetlistStats(name=netlist.name, groups=groups)
