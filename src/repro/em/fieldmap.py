"""Surface EM field maps — the location-awareness claim.

The paper (after Kumar et al., ICCAD'17): "EM radiation computation is
performed and EM leakage from every point of the IC's surface can be
acquired", and EM's advantages include "location awareness".  This
module computes the magnetic field magnitude over a grid just above
the die from the *average* per-segment currents of a workload, so a
Trojan's activation literally lights up its floorplan region in the
difference map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.chip import Chip
from repro.em.biot_savart import b_field_of_segments
from repro.errors import EmModelError
from repro.logic.activity import ToggleCountRecorder
from repro.units import UM


@dataclass
class FieldMap:
    """|B| sampled on a regular grid above the die."""

    xs: np.ndarray  # (nx,) grid x coordinates [m]
    ys: np.ndarray  # (ny,)
    magnitude: np.ndarray  # (ny, nx) field magnitude [T]

    def hotspot(self) -> tuple[float, float]:
        """(x, y) of the strongest field point.

        Ties break deterministically on the **lowest flat (row-major)
        index** — i.e. the bottom-most row, then left-most column, of
        the tied maxima — so localization verdicts are reproducible on
        the symmetric maps small grids produce.
        """
        flat = np.asarray(self.magnitude, dtype=np.float64).ravel()
        # np.argmax returns the first (lowest flat index) maximum, but
        # state the contract explicitly rather than lean on it.
        iy, ix = np.unravel_index(int(np.argmax(flat)), self.magnitude.shape)
        return float(self.xs[ix]), float(self.ys[iy])

    def region_mean(self, rect) -> float:
        """Mean |B| over a floorplan rectangle."""
        mask_x = (self.xs >= rect.x0) & (self.xs <= rect.x1)
        mask_y = (self.ys >= rect.y0) & (self.ys <= rect.y1)
        if not mask_x.any() or not mask_y.any():
            raise EmModelError("rectangle does not intersect the map grid")
        return float(self.magnitude[np.ix_(mask_y, mask_x)].mean())

    # -- storable grid exports -----------------------------------------
    def as_payload(self) -> dict:
        """JSON-encodable grid export (a ``RunResult`` payload node).

        Plain nested lists — ``{"xs": [...], "ys": [...],
        "magnitude": [[...]]}`` — so heatmaps ride inside experiment
        artifacts and survive the canonical-JSON round trip bit-for-bit
        (float64 → JSON → float64 is exact for finite values).
        """
        return {
            "xs": [float(v) for v in self.xs],
            "ys": [float(v) for v in self.ys],
            "magnitude": [[float(v) for v in row] for row in self.magnitude],
        }

    def render(self, width: int = 48, height: int = 24) -> str:
        """ASCII heat map (darker character = stronger field)."""
        shades = " .:-=+*#%@"
        mag = self.magnitude
        lo, hi = float(mag.min()), float(mag.max())
        span = max(hi - lo, 1e-30)
        ny, nx = mag.shape
        rows = []
        for j in np.linspace(ny - 1, 0, height).astype(int):
            row = []
            for i in np.linspace(0, nx - 1, width).astype(int):
                level = int((mag[j, i] - lo) / span * (len(shades) - 1))
                row.append(shades[level])
            rows.append("".join(row))
        return "\n".join(rows)


def average_cell_activity(
    chip: Chip,
    workload,
    n_cycles: int = 64,
    batch: int = 4,
    trojan_enables: tuple[str, ...] = (),
    seed_role: str = "fieldmap",
) -> np.ndarray:
    """Mean toggles per cycle for every cell under *workload*."""
    from repro.rng import derive

    sim = chip.sim
    workload.begin(batch, derive(chip.seed, seed_role))
    inputs = {}
    for name, trojan in chip.trojans.items():
        inputs[trojan.enable_pin] = np.full(
            batch, name in trojan_enables, dtype=bool
        )
    wl0 = workload.inputs(0, batch)
    if wl0:
        inputs.update(wl0)
    state = sim.reset(batch=batch, inputs=inputs)
    recorder = ToggleCountRecorder(sim)
    for k in range(1, n_cycles + 1):
        recorder.record(sim.step(state, workload.inputs(k, batch)), batch)
    return recorder.counts / (n_cycles * batch)


def field_map_from_activity(
    chip: Chip,
    activity: np.ndarray,
    z_height: float = 10 * UM,
    grid: int = 40,
) -> FieldMap:
    """|B| map above the die for the given mean cell activity.

    Each cell's average current is ``activity x q_switch x f_clk``;
    mapping through the power grid gives per-segment currents, and the
    Biot–Savart solver evaluates the field on the grid plane.
    """
    if activity.shape != (chip.sim.num_instances,):
        raise EmModelError(
            f"activity vector has shape {activity.shape}, expected "
            f"({chip.sim.num_instances},)"
        )
    cell_currents = activity * chip.q_switch * chip.config.f_clk
    seg_currents = chip.current_map.matrix @ cell_currents
    die = chip.floorplan.die
    xs = np.linspace(die.x0, die.x1, grid)
    ys = np.linspace(die.y0, die.y1, grid)
    gx, gy = np.meshgrid(xs, ys)
    z = chip.tech.layer(chip.tech.sensor_layer).z + z_height
    points = np.stack(
        [gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1
    )
    field = b_field_of_segments(
        chip.grid.seg_start,
        chip.grid.seg_end,
        np.asarray(seg_currents).ravel(),
        points,
    )
    magnitude = np.linalg.norm(field, axis=1).reshape(grid, grid)
    return FieldMap(xs=xs, ys=ys, magnitude=magnitude)


def trojan_difference_map(
    chip: Chip,
    trojan: str,
    workload_factory,
    n_cycles: int = 64,
    grid: int = 40,
    golden_activity: np.ndarray | None = None,
) -> tuple[FieldMap, FieldMap, FieldMap]:
    """(golden, active, |difference|) field maps for one Trojan.

    *workload_factory* builds a fresh workload per acquisition (e.g.
    ``lambda: EncryptionWorkload(chip.aes, key, period=12)``).

    The golden activity does not depend on the Trojan, so callers
    sweeping several Trojans should pass a precomputed
    *golden_activity* (or use :func:`trojan_difference_maps`, which
    does) rather than re-simulating it per Trojan.
    """
    if golden_activity is None:
        golden_activity = average_cell_activity(
            chip, workload_factory(), n_cycles=n_cycles
        )
    active_act = average_cell_activity(
        chip,
        workload_factory(),
        n_cycles=n_cycles,
        trojan_enables=(trojan,),
    )
    golden = field_map_from_activity(chip, golden_activity, grid=grid)
    active = field_map_from_activity(chip, active_act, grid=grid)
    diff = FieldMap(
        xs=golden.xs,
        ys=golden.ys,
        magnitude=np.abs(active.magnitude - golden.magnitude),
    )
    return golden, active, diff


def trojan_difference_maps(
    chip: Chip,
    trojans: tuple[str, ...],
    workload_factory,
    n_cycles: int = 64,
    grid: int = 40,
) -> dict[str, tuple[FieldMap, FieldMap, FieldMap]]:
    """Difference maps for a whole Trojan sweep, golden computed once.

    Returns ``{trojan: (golden, active, |difference|)}`` with the same
    per-Trojan values as calling :func:`trojan_difference_map` in a
    loop — minus N-1 redundant golden-activity simulations.
    """
    golden_activity = average_cell_activity(
        chip, workload_factory(), n_cycles=n_cycles
    )
    return {
        trojan: trojan_difference_map(
            chip,
            trojan,
            workload_factory,
            n_cycles=n_cycles,
            grid=grid,
            golden_activity=golden_activity,
        )
        for trojan in trojans
    }
