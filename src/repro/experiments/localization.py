"""Trojan localisation via surface field maps and sensor arrays.

EM's "location awareness" advantage, quantified two ways:

* :func:`run_localization` — the noise-free |B| difference-map view:
  for each Trojan, the difference between golden and Trojan-active
  field maps is scored per floorplan region; localisation succeeds
  when the Trojan's own region scores highest.
* :func:`run_array_localization` — the measurement view the
  programmable sensor-array follow-up enables: every sub-coil of the
  N×M grid is an independent anomaly channel.  The configured detector
  (any registry plugin) is fitted per channel on golden windows; a
  suspect campaign's per-channel anomaly z-scores form a coil-grid
  heatmap over the floorplan, and the argmax coil is compared against
  the Trojan's actual placement (hit@1 / hit@4, centroid distance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chip.acquire import EncryptionWorkload
from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.em.fieldmap import FieldMap, trojan_difference_maps
from repro.errors import ExperimentError
from repro.experiments.campaign import (
    DEFAULT_KEY,
    ED_PERIOD,
    get_or_generate_campaigns,
)

LOCALIZABLE_TROJANS = ("trojan1", "trojan2", "trojan4")

#: The Trojans the sensor-array experiment localises (Table I order).
ARRAY_TROJANS = ("trojan1", "trojan2", "trojan3", "trojan4", "a2")


@dataclass
class LocalizationResult:
    """Per-Trojan localisation outcome."""

    #: Region scores per Trojan: {trojan: {region: mean |dB|}}.
    scores: dict[str, dict[str, float]]
    #: Region the difference map points at, per Trojan.
    located_region: dict[str, str]
    diff_maps: dict[str, FieldMap]

    def localised(self, trojan: str) -> bool:
        return self.located_region[trojan] == trojan

    def format(self) -> str:
        lines = ["Trojan localisation via |B| difference maps"]
        for trojan, region in self.located_region.items():
            verdict = "OK" if region == trojan else "->" + region
            ranked = sorted(
                self.scores[trojan].items(), key=lambda kv: -kv[1]
            )[:3]
            top = ", ".join(f"{r}: {v:.2e}" for r, v in ranked)
            lines.append(f"  {trojan:<9} {verdict:<10} (top regions: {top})")
        return "\n".join(lines)


def run_localization(
    chip: Chip,
    trojans: tuple[str, ...] = LOCALIZABLE_TROJANS,
    n_cycles: int = 48,
    grid: int = 32,
    key: bytes = DEFAULT_KEY,
) -> LocalizationResult:
    """Locate each Trojan from the noise-free field difference map.

    Field maps come from mean switching activity (a layout-level
    simulation quantity, as in the paper's Section IV flow), so no
    measurement scenario is involved.
    """
    scores: dict[str, dict[str, float]] = {}
    located: dict[str, str] = {}
    diff_maps: dict[str, FieldMap] = {}
    maps = trojan_difference_maps(
        chip,
        trojans,
        lambda: EncryptionWorkload(chip.aes, key, period=ED_PERIOD),
        n_cycles=n_cycles,
        grid=grid,
    )
    for trojan in trojans:
        _golden, _active, diff = maps[trojan]
        region_scores = {
            name: diff.region_mean(region.rect)
            for name, region in chip.floorplan.regions.items()
        }
        scores[trojan] = region_scores
        # Locate by the hotspot (the single strongest |dB| point): the
        # region-mean ranking is biased toward thin regions that catch
        # a neighbour's fringe field.
        hx, hy = diff.hotspot()
        hit = next(
            (
                name
                for name, region in chip.floorplan.regions.items()
                if region.rect.contains(hx, hy, tol=1e-9)
            ),
            None,
        )
        located[trojan] = hit if hit is not None else max(
            region_scores, key=lambda k: region_scores[k]
        )
        diff_maps[trojan] = diff
    return LocalizationResult(
        scores=scores, located_region=located, diff_maps=diff_maps
    )


# ----------------------------------------------------------------------
# Sensor-array localization: per-coil anomaly scoring
# ----------------------------------------------------------------------


def _robust_z(neg: np.ndarray, pos: np.ndarray) -> float:
    """Median shift of *pos* over *neg* in robust (MAD) sigma units."""
    med = float(np.median(neg))
    mad = float(np.median(np.abs(neg - med)))
    scale = 1.4826 * mad
    if scale <= 0.0:
        scale = max(float(np.std(neg)), 1e-30)
    return float((float(np.median(pos)) - med) / scale)


def _ranked_cells(heatmap: np.ndarray) -> list[tuple[int, int]]:
    """Cells by descending score; ties break on lowest flat index."""
    flat = np.asarray(heatmap, dtype=np.float64).ravel()
    cols = heatmap.shape[1]
    order = np.argsort(-flat, kind="stable")
    return [(int(i) // cols, int(i) % cols) for i in order]


def _chebyshev(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass
class ArrayChannelOutcome:
    """One suspect round as seen by the whole coil grid."""

    #: Robust z per coil, shape ``(rows, cols)``, row 0 at the die's
    #: bottom edge (matching :class:`repro.em.sensor.SensorArray`).
    heatmap: np.ndarray
    #: Coil whose channel scores highest (ties: lowest flat index).
    argmax_cell: tuple[int, int]
    #: Grid cell over the Trojan's placed centroid (``None`` for the
    #: golden round, which has no true location).
    true_cell: tuple[int, int] | None
    #: argmax coil within one grid cell (Chebyshev) of the truth.
    hit1: bool
    #: any of the four top-scoring coils within one cell of the truth.
    hit4: bool
    #: Distance argmax-tile centre -> placed centroid [um].
    centroid_distance_um: float
    #: Channels whose detector's decide() flagged this round.
    detected_channels: int


@dataclass
class ArrayLocalizationResult:
    """Outcome of :func:`run_array_localization`."""

    rows: int
    cols: int
    detector: str
    reference_free: bool
    channels: tuple[str, ...]
    #: Per-Trojan outcomes, insertion-ordered like the input tuple.
    outcomes: dict[str, ArrayChannelOutcome]
    #: The golden suspect round (should stay quiet).
    golden: ArrayChannelOutcome
    #: Noise-free |B| difference maps per Trojan (rendered context).
    diff_maps: dict[str, FieldMap] = field(default_factory=dict)

    @property
    def golden_flagged(self) -> bool:
        """Any coil channel flagged the Trojan-free suspect round."""
        return self.golden.detected_channels > 0

    def hit_at(self, k: int) -> int:
        """Number of Trojans localised within one cell at rank *k*."""
        if k == 1:
            return sum(o.hit1 for o in self.outcomes.values())
        return sum(o.hit4 for o in self.outcomes.values())

    def format(self) -> str:
        um = 1e6
        lines = [
            f"Sensor-array localisation ({self.rows}x{self.cols} grid, "
            f"detector {self.detector!r})",
            f"  golden round: {self.golden.detected_channels} channel(s) "
            f"flagged ({'FAIL' if self.golden_flagged else 'clean'})",
        ]
        for trojan, o in self.outcomes.items():
            verdict = "hit@1" if o.hit1 else ("hit@4" if o.hit4 else "MISS")
            lines.append(
                f"  {trojan:<9} argmax r{o.argmax_cell[0]}c{o.argmax_cell[1]} "
                f"vs true r{o.true_cell[0]}c{o.true_cell[1]}  {verdict:<6} "
                f"centroid {o.centroid_distance_um:6.1f} um  "
                f"({o.detected_channels}/{len(self.channels)} ch flagged)"
            )
        lines.append(
            f"  hit@1 {self.hit_at(1)}/{len(self.outcomes)}, "
            f"hit@4 {self.hit_at(4)}/{len(self.outcomes)}"
        )
        return "\n".join(lines)

    def payload(self) -> dict:
        """JSON-encodable ``RunResult`` payload."""

        def cell(rc):
            return [int(rc[0]), int(rc[1])]

        def heat(h):
            return [[float(v) for v in row] for row in h]

        return {
            "rows": int(self.rows),
            "cols": int(self.cols),
            "detector": self.detector,
            "reference_free": bool(self.reference_free),
            "channels": list(self.channels),
            "golden": {
                "heatmap": heat(self.golden.heatmap),
                "detected_channels": int(self.golden.detected_channels),
                "flagged": bool(self.golden_flagged),
            },
            "trojans": {
                name: {
                    "heatmap": heat(o.heatmap),
                    "argmax_cell": cell(o.argmax_cell),
                    "true_cell": cell(o.true_cell),
                    "hit1": bool(o.hit1),
                    "hit4": bool(o.hit4),
                    "centroid_distance_um": float(o.centroid_distance_um),
                    "detected_channels": int(o.detected_channels),
                }
                for name, o in self.outcomes.items()
            },
            "hit1": int(self.hit_at(1)),
            "hit4": int(self.hit_at(4)),
            "fieldmaps": {
                name: fmap.as_payload()
                for name, fmap in self.diff_maps.items()
            },
        }


def run_array_localization(
    chip: Chip,
    scenario: Scenario,
    trojans: tuple[str, ...] = ARRAY_TROJANS,
    n_golden: int = 256,
    n_eval: int = 128,
    n_suspect: int = 128,
    detector_name: str | None = None,
    batch: int = 32,
    fieldmap_cycles: int = 48,
    fieldmap_grid: int = 32,
    key: bytes = DEFAULT_KEY,
    cache=None,
) -> ArrayLocalizationResult:
    """Localise Trojans from per-coil anomaly scores of the sensor array.

    The array turns the paper's single detection statistic spatial:
    the configured registry detector (*detector_name*, default the
    ``REPRO_DETECTOR`` knob) is fitted **per coil channel** on golden
    windows, every suspect campaign is scored per channel, and the
    per-coil robust z-scores form a ``(rows, cols)`` heatmap over the
    floorplan.  The argmax coil is then compared against the Trojan's
    placed centroid: *hit@1* means the top coil is within one grid
    cell (Chebyshev) of the cell over the centroid, *hit@4* relaxes to
    the four top-scoring coils.

    Golden-based plugins score decimated ED windows against their own
    held-out golden evaluation set; reference-free plugins score the
    pooled (golden-eval + suspect) full-rate windows, exactly like the
    detector tournament.  A Trojan-free "golden" suspect round is
    always evaluated too — :attr:`ArrayLocalizationResult.golden_flagged`
    is the array's false-positive check.

    All channels of a campaign come from one acquisition (the
    multi-channel synthesis path), so an N×M array costs the same
    simulation time as one coil, and the evaluation, fit and suspect
    campaigns of equal length share one lane-packed pass.
    """
    from repro.detectors.registry import create_detector, get_detector_class

    array = chip.sensor_array
    if array is None:
        raise ExperimentError(
            "chip has no sensor array; build it with "
            "ChipConfig(sensor_array_rows=..., sensor_array_cols=...)"
        )
    channels = chip.receiver_groups.get("array")
    if not channels:
        raise ExperimentError("chip has no 'array' receiver group")
    if detector_name is None:
        from repro.config import active_config

        detector_name = active_config().detector
    info = get_detector_class(detector_name).info
    rows, cols = array.rows, array.cols

    raw = bool(info.reference_free)

    def ed(enables, n, role):
        params = dict(
            n_traces=n,
            receivers=channels,
            trojan_enables=tuple(enables),
            rng_role=role,
            batch=batch,
            key=key,
        )
        if raw:
            params["decimate"] = 1
        return ("ed", params)

    # Every campaign of the run in one request list: those of one shape
    # share a lane-packed acquisition pass.
    rounds = ("golden",) + tuple(trojans)
    requests = [ed((), n_eval, "arrayloc/eval")]
    if not info.reference_free:
        requests.append(ed((), n_golden, "arrayloc/fit"))
    requests += [
        ed(() if name == "golden" else (name,), n_suspect,
           f"arrayloc/suspect/{name}")
        for name in rounds
    ]
    traces = get_or_generate_campaigns(chip, scenario, requests, cache=cache)
    eval_traces = traces[0]
    suspects = traces[-len(rounds):]
    if info.reference_free:
        detectors = {
            ch: create_detector(detector_name).fit(np.empty((0, 0)))
            for ch in channels
        }
        neg_scores = {}
    else:
        fit_traces = traces[1]
        detectors = {
            ch: create_detector(detector_name).fit(fit_traces[ch])
            for ch in channels
        }
        neg_scores = {
            ch: detectors[ch].score(eval_traces[ch]) for ch in channels
        }

    outcomes: dict[str, ArrayChannelOutcome] = {}
    golden_outcome: ArrayChannelOutcome | None = None
    for name, suspect in zip(rounds, suspects):
        z = np.zeros(rows * cols, dtype=np.float64)
        detected = 0
        for i, ch in enumerate(channels):
            det = detectors[ch]
            if info.reference_free:
                scores = det.score(
                    np.vstack([eval_traces[ch], suspect[ch]])
                )
                neg, pos = scores[:n_eval], scores[n_eval:]
                decision = det.decide(scores)
            else:
                neg = neg_scores[ch]
                pos = det.score(suspect[ch])
                decision = det.decide(pos)
            z[i] = _robust_z(neg, pos)
            detected += bool(decision.detected)
        heatmap = z.reshape(rows, cols)
        ranked = _ranked_cells(heatmap)
        argmax_cell = ranked[0]
        if name == "golden":
            golden_outcome = ArrayChannelOutcome(
                heatmap=heatmap,
                argmax_cell=argmax_cell,
                true_cell=None,
                hit1=False,
                hit4=False,
                centroid_distance_um=float("nan"),
                detected_channels=detected,
            )
            continue
        cx, cy = chip.placement.group_centroid(chip.netlist, name)
        true_cell = array.cell_of(cx, cy)
        tile = array.tiles[argmax_cell[0] * cols + argmax_cell[1]]
        tx, ty = tile.center
        outcomes[name] = ArrayChannelOutcome(
            heatmap=heatmap,
            argmax_cell=argmax_cell,
            true_cell=true_cell,
            hit1=_chebyshev(argmax_cell, true_cell) <= 1,
            hit4=any(
                _chebyshev(c, true_cell) <= 1 for c in ranked[:4]
            ),
            centroid_distance_um=float(np.hypot(tx - cx, ty - cy) * 1e6),
            detected_channels=detected,
        )

    diff_maps = {
        trojan: maps[2]
        for trojan, maps in trojan_difference_maps(
            chip,
            tuple(trojans),
            lambda: EncryptionWorkload(chip.aes, key, period=ED_PERIOD),
            n_cycles=fieldmap_cycles,
            grid=fieldmap_grid,
        ).items()
    }
    return ArrayLocalizationResult(
        rows=rows,
        cols=cols,
        detector=detector_name,
        reference_free=bool(info.reference_free),
        channels=tuple(channels),
        outcomes=outcomes,
        golden=golden_outcome,
        diff_maps=diff_maps,
    )
