"""The assembled test chip.

:class:`Chip` is the one-stop object the experiments use: it owns the
die netlist (AES plus any subset of the five Trojans), the compiled
simulator, the physical design (floorplan, placement, power grid), both
EM receivers (on-chip spiral sensor and external probe) and the
precomputed per-cell coupling weights that make trace synthesis cheap.

Building a chip takes one to a few seconds, spread over netlist
generation, simulator compilation and the coil couplings (Neumann
integrals plus the per-cell fold); each stage reports its wall time to
the active metrics registry as ``stage.chip.<stage>.seconds``
(``netlist``, ``layout``, ``compile``, ``current_map``, ``charges``,
``coupling``).  The layout stage designs the coils right after the
floorplan, so a coil grid the die cannot hold raises before placement
and compilation.  Experiment drivers therefore construct one chip and run
many acquisition campaigns against it — the same economics as taping
out once and measuring many times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.chip.config import ChipConfig
from repro.crypto.aes_circuit import AesCircuit, build_aes_circuit
from repro.em.probe import ExternalProbe
from repro.em.sensor import OnChipSensor, SensorArray
from repro.errors import ExperimentError
from repro.layout.current_map import (
    CurrentMap,
    build_current_map,
    position_coupling,
)
from repro.layout.floorplan import Floorplan, plan_floorplan
from repro.layout.placement import Placement, place_netlist
from repro.layout.power_grid import PowerGrid, build_power_grid
from repro.layout.technology import Technology, make_tech180
from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist
from repro.logic.simulator import CompiledNetlist
from repro.logic.stats import NetlistStats, netlist_stats
from repro.obs import active_metrics
from repro.power.charges import clock_charges, switching_charges
from repro.trojans.a2 import A2Params, attach_a2
from repro.trojans.base import AnalogTap, HardwareTrojan
from repro.trojans.t1_am import Trojan1Params, attach_trojan1
from repro.trojans.t2_leakage import Trojan2Params, attach_trojan2
from repro.trojans.t3_cdma import Trojan3Params, attach_trojan3
from repro.trojans.t4_power import Trojan4Params, attach_trojan4

#: All Trojans of the paper's test chip, in Table I order.
ALL_TROJANS = ("trojan1", "trojan2", "trojan3", "trojan4", "a2")

_ATTACHERS = {
    "trojan1": (attach_trojan1, Trojan1Params),
    "trojan2": (attach_trojan2, Trojan2Params),
    "trojan3": (attach_trojan3, Trojan3Params),
    "trojan4": (attach_trojan4, Trojan4Params),
    "a2": (attach_a2, A2Params),
}


@dataclass
class Receiver:
    """One EM receiver with its precomputed couplings."""

    name: str
    #: Mutual inductance of each cell's current path to this coil [H],
    #: aligned with the compiled netlist's instance order.
    cell_coupling: np.ndarray
    #: Flux-capture area for environment noise [m²·turns].
    effective_area: float
    #: Coil trace resistance [ohm] (thermal noise).
    resistance: float
    #: True for off-chip receivers (package attenuation applies).
    external: bool
    #: Coupling of each analog tap's current path [H], by tap index.
    tap_coupling: dict[int, float] = field(default_factory=dict)
    #: Coherent package/bondwire-loop coupling [H] added to every
    #: cell's (and tap's) path for off-chip receivers.
    package_coupling: float = 0.0
    #: Physical quantity the receiver senses: inductive receivers see
    #: the *derivative* of the current ("emf"); a shunt-based power
    #: monitor sees the current itself ("current").
    sense: str = "emf"
    #: Channel-group membership: ``None`` for the standalone receivers
    #: (``sensor``/``probe``/``power``, whose acquisition noise keeps
    #: the legacy shared RNG stream for bit-identity) or the group name
    #: (e.g. ``"array"``) for multi-channel members, whose noise comes
    #: from a per-channel derived stream so any subset of the group can
    #: be acquired without changing the other channels' samples.
    group: str | None = None


class Chip:
    """A fully assembled, measurable test chip."""

    def __init__(
        self,
        config: ChipConfig,
        seed: int,
        tech: Technology,
        netlist: Netlist,
        aes: AesCircuit,
        trojans: dict[str, HardwareTrojan],
    ) -> None:
        self.config = config
        self.seed = seed
        self.tech = tech
        self.netlist = netlist
        self.aes = aes
        self.trojans = trojans
        metrics = active_metrics()

        # The coils are designed right after the floorplan, so a sensor
        # geometry the die cannot hold fails before the costly stages.
        with metrics.time("stage.chip.layout.seconds"):
            self.floorplan: Floorplan = plan_floorplan(
                netlist, tech, utilization=config.utilization
            )
            self.sensor = OnChipSensor.design(
                self.floorplan.die,
                tech,
                turns=config.sensor_turns,
                trace_width=config.sensor_trace_width,
                edge_margin=config.sensor_edge_margin,
            )
            self.probe = ExternalProbe.langer_rf(
                self.floorplan.die,
                die_top_z=tech.layer(tech.sensor_layer).z,
                standoff=config.probe_standoff,
                radius=config.probe_radius,
                turns=config.probe_turns,
            )
            self.sensor_array: SensorArray | None = None
            if config.sensor_array_rows:
                self.sensor_array = SensorArray.design_grid(
                    self.floorplan.die,
                    tech,
                    rows=config.sensor_array_rows,
                    cols=config.sensor_array_cols,
                    turns=config.sensor_array_turns,
                    trace_width=config.sensor_array_trace_width,
                    edge_margin=config.sensor_array_edge_margin,
                )
            self.placement: Placement = place_netlist(
                netlist, self.floorplan, seed=config.placement_seed + seed
            )
            self.grid: PowerGrid = build_power_grid(
                self.floorplan,
                tile_len=config.tile_len,
                stripe_pitch=config.stripe_pitch,
                ring_current_fraction=config.ring_current_fraction,
            )
        with metrics.time("stage.chip.compile.seconds"):
            self.sim = CompiledNetlist(netlist)
        with metrics.time("stage.chip.current_map.seconds"):
            xs, ys = self.placement.arrays_for(self.sim.instance_names)
            self.current_map: CurrentMap = build_current_map(self.grid, xs, ys)
        with metrics.time("stage.chip.charges.seconds"):
            self.q_switch = switching_charges(
                netlist, self.sim.instance_names, tech
            )
            self.q_clock = clock_charges(netlist, self.sim.instance_names, tech)

        #: Flat list of all analog taps across Trojans.
        self.taps: list[AnalogTap] = [
            tap for tr in trojans.values() for tap in tr.analog_taps
        ]

        with metrics.time("stage.chip.coupling.seconds"):
            self.receivers: dict[str, Receiver] = {}
            #: Channel groups: every receiver name appears in exactly one
            #: group; standalone receivers are singleton groups.
            self.receiver_groups: dict[str, tuple[str, ...]] = {}
            self._install_receiver("sensor", self.sensor, external=False)
            self._install_receiver("probe", self.probe, external=True)
            if config.include_power_monitor:
                self._install_power_monitor()
            if self.sensor_array is not None:
                self._install_channel_group("array", self.sensor_array)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: ChipConfig | None = None,
        trojans: Iterable[str] = ALL_TROJANS,
        seed: int = 0,
        tech: Technology | None = None,
        trojan_params: dict | None = None,
    ) -> "Chip":
        """Generate and assemble a chip.

        Parameters
        ----------
        config:
            Physical configuration (defaults to :class:`ChipConfig`).
        trojans:
            Names of Trojans to embed (any subset of
            :data:`ALL_TROJANS`); an empty iterable builds the golden
            AES-only die.
        seed:
            Build seed (placement shuffle, process-variation streams).
        trojan_params:
            Optional per-Trojan parameter overrides, e.g.
            ``{"trojan2": Trojan2Params(depth=64)}``.
        """
        config = config or ChipConfig()
        tech = tech or make_tech180()
        trojan_params = trojan_params or {}
        unknown = set(trojans) - set(ALL_TROJANS)
        if unknown:
            raise ExperimentError(
                f"unknown trojans {sorted(unknown)}; valid: {list(ALL_TROJANS)}"
            )
        if bool(config.sensor_array_rows) != bool(config.sensor_array_cols):
            raise ExperimentError(
                "sensor_array_rows and sensor_array_cols must both be set "
                f"(or both 0); got {config.sensor_array_rows}x"
                f"{config.sensor_array_cols}"
            )
        with active_metrics().time("stage.chip.netlist.seconds"):
            b = NetlistBuilder("die")
            aes = build_aes_circuit(b)
            attached: dict[str, HardwareTrojan] = {}
            for name in trojans:
                attach, _params_cls = _ATTACHERS[name]
                attached[name] = attach(b, aes, trojan_params.get(name))
            netlist = b.build()
        return cls(
            config=config,
            seed=seed,
            tech=tech,
            netlist=netlist,
            aes=aes,
            trojans=attached,
        )

    def _install_receiver(self, name: str, coil, external: bool) -> None:
        """Install a standalone (singleton-group) receiver."""
        coupling_seg = coil.coupling(
            self.grid.seg_start,
            self.grid.seg_end,
            n_quad=self.config.coupling_quadrature,
        )
        resistance = coil.resistance() if hasattr(coil, "resistance") else 0.5
        self.receivers[name] = self._receiver_from_coupling(
            name,
            coupling_seg,
            effective_area=coil.effective_area(),
            resistance=resistance,
            external=external,
        )
        self.receiver_groups[name] = (name,)

    def _install_channel_group(self, group: str, array: SensorArray) -> None:
        """Install every coil of *array* as one channel group.

        A single batched :meth:`SensorArray.coupling` pass yields the
        whole ``(coils, segments)`` tensor; each row then goes through
        the exact same cell/tap weighting as a standalone receiver.
        """
        coupling = array.coupling(
            self.grid.seg_start,
            self.grid.seg_end,
            n_quad=self.config.coupling_quadrature,
        )
        names = array.channel_names(group)
        for row, name, coil in zip(coupling, names, array.coils):
            if name in self.receivers:
                raise ExperimentError(f"duplicate receiver name {name!r}")
            self.receivers[name] = self._receiver_from_coupling(
                name,
                row,
                effective_area=coil.effective_area(),
                resistance=coil.resistance(),
                external=False,
                group=group,
            )
        self.receiver_groups[group] = tuple(names)

    def _receiver_from_coupling(
        self,
        name: str,
        coupling_seg: np.ndarray,
        effective_area: float,
        resistance: float,
        external: bool,
        group: str | None = None,
    ) -> Receiver:
        """Per-segment coupling → fully weighted :class:`Receiver`."""
        cell_coupling = self.current_map.cell_weights(coupling_seg)
        tap_coupling: dict[int, float] = {}
        for i, tap in enumerate(self.taps):
            tap_coupling[i] = position_coupling(
                self.grid, coupling_seg, *self._tap_position(tap)
            )
        package_coupling = (
            self.config.package_loop_coupling if external else 0.0
        )
        if package_coupling:
            cell_coupling = cell_coupling + package_coupling
            tap_coupling = {
                i: m + package_coupling for i, m in tap_coupling.items()
            }
        return Receiver(
            name=name,
            cell_coupling=cell_coupling,
            effective_area=effective_area,
            resistance=resistance,
            external=external,
            tap_coupling=tap_coupling,
            package_coupling=package_coupling,
            group=group,
        )

    def _install_power_monitor(self) -> None:
        """Classical power side channel: a shunt on the supply.

        The baseline the paper's related work uses ("global power
        consumption [3]"): every cell's current is summed coherently —
        no spatial information at all — and converted to a voltage by
        the shunt resistance.  Used by the power-vs-EM baseline
        experiment; enable via ``ChipConfig(include_power_monitor=True)``.
        """
        r_shunt = self.config.power_shunt_ohms
        n = self.sim.num_instances
        self.receivers["power"] = Receiver(
            name="power",
            cell_coupling=np.full(n, r_shunt),
            effective_area=0.0,
            resistance=r_shunt,
            external=False,
            tap_coupling={i: r_shunt for i in range(len(self.taps))},
            package_coupling=0.0,
            sense="current",
        )
        self.receiver_groups["power"] = ("power",)

    def _tap_position(self, tap: AnalogTap) -> tuple[float, float]:
        """Physical location of an analog tap's current loop.

        A tap rides a specific net, so it sits at that net's driver
        cell (an A2 pump is soldered onto its victim wire); if the
        driver is unplaced, fall back to the tap group's centroid.
        Spread taps (die-spanning routes) couple from the die centre.
        """
        if tap.spread:
            return self.floorplan.die.center
        anchor_net = tap.position_net if tap.position_net is not None else tap.net
        driver = self.netlist.nets[anchor_net].driver
        if driver is not None and driver in self.placement.positions:
            return self.placement.positions[driver]
        return self.placement.group_centroid(self.netlist, tap.group)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def stats(self) -> NetlistStats:
        """Gate-count/area statistics (Table I input)."""
        return netlist_stats(self.netlist)

    def describe(self) -> str:
        """Multi-line summary of the physical build."""
        return "\n".join([
            f"chip seed={self.seed}: {self.netlist.num_instances} cells, "
            f"{self.netlist.num_nets} nets",
            self.floorplan.summary(),
            self.sensor.describe(),
            self.probe.describe(),
            f"power grid: {self.grid.n_segments} segments",
        ])
