"""The benchmark's workloads: set-up plus one repeatable operation each.

A workload builds everything its operation needs in :meth:`setup` (the
work every ``repro run`` or ``repro fleet`` process pays before its
first verdict) and then runs :meth:`op` over and over.  Each operation
turns trace windows into verdicts and returns an :class:`OpResult`:
how many windows it consumed, the canonical decisions it reached (the
``decisions_digest`` input), how many verdicts disagree with ground
truth, and any violated invariant.  An invariant breach fails the
operation; a wrong verdict on a marginal Trojan does not, it is only
counted in ``verdict_error_rate``.

Every chip workload measures the repository's reference chip (build
seed 1, the ``repro run`` default); the benchmark seed selects the
measurement scenario, whose seed drives every noise, stimulus and
process-variation stream of the campaigns.  Not every chip build can
reach the paper's SNR targets (build seed 3 cannot), so the device
stays fixed and the measurement varies.  The synthetic fleet is drawn
from the seed directly.  Library functions are called through their
modules so the ``--trace`` run can wrap them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import detectors  # noqa: E402
from repro.chip import (  # noqa: E402
    array_scenario,
    calibration,
    simulation_scenario,
)
from repro.experiments import campaign, localization  # noqa: E402
from repro.fleet import campaign as fleet_campaign  # noqa: E402
from repro.fleet import feed, scheduler, session  # noqa: E402
from repro.framework.evaluator import (  # noqa: E402
    EvaluatorConfig,
    RuntimeTrustEvaluator,
)
from repro.obs.journal import EventJournal  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.rng import derive  # noqa: E402

#: Link faults of the CI fleet smoke: drop, duplicate, reorder.
LINK_FAULTS = feed.FaultSpec(0.02, 0.02, 0.05)

#: Build seed of the chip every chip workload measures.
CHIP_SEED = 1

#: Calibration record length.  The library default (1024 cycles) costs
#: ~15 s of bool-backend simulation; 64 cycles keeps the SNR anchor and
#: the same code path while letting set-up repeat within one run.
CALIBRATION_CYCLES = 64


@dataclass
class OpResult:
    """What one operation produced."""

    #: Identity of the operation's input within the run (ops with equal
    #: keys must reach equal decisions).
    key: str
    #: Trace windows the operation turned into verdicts.
    windows: int
    #: Canonical, JSON-encodable decision outputs.
    decisions: dict
    verdicts: int
    wrong: int
    problems: list[str] = field(default_factory=list)
    #: Seconds from the start of the operation to its first alarm
    #: (fleet workloads only).
    ttfv_s: float | None = None

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical JSON of :attr:`decisions`."""
        text = json.dumps(
            self.decisions, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def release_caches() -> None:
    """Drop the library's process-level memos so set-up starts cold."""
    campaign.clear_campaign_caches()
    gc.collect()


class AlarmClockJournal(EventJournal):
    """Event journal that notes when its first alarm is recorded."""

    def __init__(self, path=None) -> None:
        super().__init__(path)
        self.first_alarm_at: float | None = None

    def record(self, kind: str, **fields) -> dict:
        if kind == "alarm" and self.first_alarm_at is None:
            self.first_alarm_at = time.perf_counter()
        return super().record(kind, **fields)


def _since(start: float, at: float | None) -> float | None:
    return None if at is None else at - start


@contextlib.contextmanager
def _patched(module, **attrs):
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def _calibrated_scenario(chip, seed: int):
    return calibration.calibrate_scenario(
        chip,
        simulation_scenario(seed),
        n_cycles=CALIBRATION_CYCLES,
        batch=8,
    )


class ArrayLocalization:
    """Sensor-array localisation of one Trojan per operation."""

    name = "array_localization"
    why = (
        "16-coil array: multi-channel synthesis and fold, bool backend at "
        "batch 32, per-coil detectors and Biot-Savart field maps; no fleet"
    )

    #: Coil grid, windows per campaign and field-map size.
    rows = cols = 4
    n_windows = 32
    fieldmap_cycles = fieldmap_grid = 16

    def setup(self, seed: int):
        chip = campaign.shared_array_chip(
            seed=CHIP_SEED, rows=self.rows, cols=self.cols
        )
        return chip, array_scenario(self.rows, self.cols, seed)

    def op(self, state, k: int) -> OpResult:
        chip, scenario = state
        trojans = localization.ARRAY_TROJANS
        trojan = trojans[k % len(trojans)]
        n = self.n_windows
        result = localization.run_array_localization(
            chip,
            scenario,
            trojans=(trojan,),
            n_golden=n,
            n_eval=n,
            n_suspect=n,
            batch=32,
            fieldmap_cycles=self.fieldmap_cycles,
            fieldmap_grid=self.fieldmap_grid,
            cache=False,
        )
        o = result.outcomes[trojan]
        problems = []
        if result.golden_flagged:
            problems.append("golden round flagged")
        if not o.hit4:
            problems.append(f"{trojan} not within the top four coils")
        if not np.all(np.isfinite(o.heatmap)):
            problems.append("non-finite heatmap")
        return OpResult(
            key=trojan,
            windows=4 * n,
            decisions={
                "trojan": trojan,
                "argmax": list(o.argmax_cell),
                "hit1": o.hit1,
                "hit4": o.hit4,
                "golden_flagged": result.golden_flagged,
            },
            verdicts=2,
            wrong=int(not o.hit1) + int(result.golden_flagged),
            problems=problems,
        )


#: Tournament scenarios: the null row plus every Trojan.
SCENARIOS = ("golden", "trojan1", "trojan2", "trojan3", "trojan4", "a2")


@dataclass
class TournamentState:
    chip: object
    scenario: object
    fitted: dict
    eval_dec: np.ndarray
    eval_raw: np.ndarray
    neg_scores: dict


class DetectorTournament:
    """Every registry detector scores one suspect scenario per operation."""

    name = "detector_tournament"
    why = (
        "single receiver, packed backend at batch 64, all four registry "
        "detectors plus exact ROC; set-up pays the bool batch-8 calibration"
    )

    def __init__(self, n_windows: int = 64) -> None:
        self.n_windows = n_windows

    def _ed(self, chip, scenario, enables, role, decimate):
        params = dict(
            n_traces=self.n_windows,
            receivers=("sensor",),
            trojan_enables=enables,
            rng_role=role,
        )
        if decimate is not None:
            params["decimate"] = decimate
        return campaign.get_or_generate_traces(
            chip, scenario, "ed", cache=False, **params
        )["sensor"]

    def setup(self, seed: int) -> TournamentState:
        chip = campaign.shared_chip(seed=CHIP_SEED)
        scenario = _calibrated_scenario(chip, seed)
        reference = self._ed(chip, scenario, (), "bench/fit", None)
        eval_dec = self._ed(chip, scenario, (), "bench/eval", None)
        eval_raw = self._ed(chip, scenario, (), "bench/eval", 1)
        fitted, neg_scores = {}, {}
        for info in detectors.all_detector_infos():
            if info.reference_free:
                det = detectors.create_detector(info.name).fit(
                    np.empty((0, 0))
                )
            else:
                det = detectors.create_detector(info.name).fit(reference)
                neg_scores[info.name] = det.score(eval_dec)
            fitted[info.name] = (info, det)
        return TournamentState(
            chip, scenario, fitted, eval_dec, eval_raw, neg_scores
        )

    def op(self, state: TournamentState, k: int) -> OpResult:
        scen_name = SCENARIOS[k % len(SCENARIOS)]
        enables = () if scen_name == "golden" else (scen_name,)
        role = f"bench/suspect/{scen_name}"
        suspect_dec = self._ed(state.chip, state.scenario, enables, role, None)
        suspect_raw = self._ed(state.chip, state.scenario, enables, role, 1)
        cells, wrong, problems = {}, 0, []
        n_eval = state.eval_raw.shape[0]
        for name, (info, det) in state.fitted.items():
            if info.reference_free:
                scores = det.score(np.vstack([state.eval_raw, suspect_raw]))
                neg, pos = scores[:n_eval], scores[n_eval:]
                decision = det.decide(scores)
            else:
                neg, pos = state.neg_scores[name], det.score(suspect_dec)
                decision = det.decide(pos)
            auc = detectors.roc_curve(neg, pos).auc
            if not 0.0 <= auc <= 1.0:
                problems.append(f"{name}: AUC {auc} outside [0, 1]")
            detected = bool(decision.detected)
            wrong += detected != (scen_name != "golden")
            cells[name] = {"auc": round(float(auc), 6), "detected": detected}
        best = max(c["auc"] for c in cells.values())
        if scen_name == "trojan4" and best < 0.99:
            problems.append(f"trojan4 best AUC {best} < 0.99")
        return OpResult(
            key=scen_name,
            windows=2 * self.n_windows,
            decisions={"scenario": scen_name, "cells": cells},
            verdicts=len(cells),
            wrong=wrong,
            problems=problems,
        )


#: The benchmark's fleet: one trusted chip and one Trojaned chip.
FLEET = (("golden", ()), ("trojan4", ("trojan4",)))


class FleetStream:
    """One ``repro fleet --ingest stream`` campaign per operation."""

    name = "fleet_stream"
    why = (
        "the repro fleet path: producer thread generates lane-packed chunks "
        "while the scheduler scores, plus spectral sweep and one-shot check"
    )

    #: Windows per chip and per streamed chunk.
    n_windows = 32
    chunk = 16

    def setup(self, seed: int):
        chip = campaign.shared_chip(seed=CHIP_SEED)
        return chip, _calibrated_scenario(chip, seed)

    def op(self, state, k: int) -> OpResult:
        start = time.perf_counter()
        chip, scenario = state
        config = fleet_campaign.FleetConfig.smoke(
            seed=CHIP_SEED,
            detector="euclidean",
            ingest="stream",
            faults=LINK_FAULTS,
            n_golden=64,
            n_windows=self.n_windows,
            chunk=self.chunk,
            monitor_window=16,
            spectral_cycles=32,
        )

        def calibrated(c, base):
            # The campaign looks its scenario up here; hand it the one
            # calibrated in set-up instead of a 1024-cycle calibration.
            if c is not chip or base.name != scenario.name:
                raise RuntimeError("fleet campaign asked for another scenario")
            return scenario

        journals: list[AlarmClockJournal] = []

        def journal(path=None):
            journals.append(AlarmClockJournal(path))
            return journals[-1]

        with _patched(
            fleet_campaign, calibrated=calibrated, EventJournal=journal
        ):
            result = fleet_campaign.run_fleet_campaign(config, fleet=FLEET)
        verdicts = {
            chip_id: {
                "verdict": v.verdict.value,
                "first_alarm": v.first_alarm_window,
                "oneshot": v.oneshot_verdict.value,
            }
            for chip_id, v in result.verdicts.items()
        }
        flagged = {c: v.verdict.is_alarm for c, v in result.verdicts.items()}
        problems = [
            f"{c}: streaming and one-shot verdicts differ"
            for c, v in result.verdicts.items()
            if not v.matches_oneshot
        ]
        if flagged["golden"]:
            problems.append("golden chip flagged")
        if not flagged["trojan4"]:
            problems.append("trojan4 chip not flagged")
        return OpResult(
            key="fleet",
            windows=config.n_golden + len(FLEET) * config.n_windows,
            decisions=verdicts,
            verdicts=len(flagged),
            wrong=sum(flagged[c] != bool(en) for c, en in FLEET),
            problems=problems,
            ttfv_s=_since(start, journals[0].first_alarm_at),
        )


#: Envelope shift per chip of the synthetic fleet (golden, T1-T4, A2),
#: the pattern of ``benchmarks/bench_fleet_scale.py``.
SHIFTS = (0.0, 0.5, 0.35, 0.25, 0.02, 0.6)


@dataclass
class FleetScaleState:
    seed: int
    evaluator: RuntimeTrustEvaluator
    streams: dict


class FleetScale:
    """One scheduler pass over a large synthetic fleet per operation."""

    name = "fleet_scale"
    why = (
        "no acquisition: 192 chips x 384 synthetic windows through the tick "
        "loop, feed batching, link faults and batched scoring"
    )

    def __init__(
        self, n_chips: int = 192, n_windows: int = 384, samples: int = 100
    ) -> None:
        self.n_chips = n_chips
        self.n_windows = n_windows
        self.samples = samples

    def setup(self, seed: int) -> FleetScaleState:
        rng = derive(seed, "bench/fleet_scale")
        s = self.samples
        base = np.sin(np.linspace(0, 15, s))
        shape = np.cos(np.linspace(0, 9, s))
        golden = base[None, :] + 0.05 * rng.normal(size=(192, s))
        detector = detectors.create_detector("euclidean").fit(golden)
        evaluator = RuntimeTrustEvaluator(
            detector=detector,
            golden_spectrum=None,
            fs=1e9,
            config=EvaluatorConfig(detector="euclidean"),
        )
        streams = {
            f"chip{i:03d}": (base + SHIFTS[i % len(SHIFTS)] * shape)[None, :]
            + 0.05 * rng.normal(size=(self.n_windows, s))
            for i in range(self.n_chips)
        }
        return FleetScaleState(seed, evaluator, streams)

    def op(self, state: FleetScaleState, k: int) -> OpResult:
        start = time.perf_counter()
        metrics, journal = MetricsRegistry(), AlarmClockJournal()
        sessions = [
            session.MonitorSession(
                chip_id, state.evaluator, window=64, confirm=2,
                metrics=metrics, journal=journal,
            )
            for chip_id in state.streams
        ]
        feeds = [
            feed.TraceFeed(
                chip_id, traces, batch=8, faults=LINK_FAULTS, seed=state.seed
            )
            for chip_id, traces in state.streams.items()
        ]
        result = scheduler.FleetScheduler(
            sessions, workers=1, scoring="batched",
            journal=journal, metrics=metrics,
        ).run(feeds)
        first = {
            c: r.first_alarm_window for c, r in result.reports.items()
        }
        problems, wrong = [], 0
        for i, chip_id in enumerate(state.streams):
            shift = SHIFTS[i % len(SHIFTS)]
            alarmed = first[chip_id] is not None
            wrong += alarmed != (shift > 0)
            if shift == 0.0 and alarmed:
                problems.append(f"{chip_id}: golden chip alarmed")
            if shift >= 0.25 and not alarmed:
                problems.append(f"{chip_id}: shift {shift} never alarmed")
        return OpResult(
            key="fleet",
            windows=result.windows_ingested,
            decisions={"first_alarm": first},
            verdicts=len(first),
            wrong=wrong,
            problems=problems,
            ttfv_s=_since(start, journal.first_alarm_at),
        )


#: Workloads by name, in the order a full run executes them.
WORKLOADS = {
    w.name: w
    for w in (ArrayLocalization, DetectorTournament, FleetStream, FleetScale)
}
