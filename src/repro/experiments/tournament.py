"""Detector tournament: ROC/AUC for every registered detector.

Runs each registry detector (``repro detectors``) against every
scenario — the golden chip and each Trojan (T1–T4, A2) — at one or
more environment-noise scales, and reports an exact threshold-sweep
ROC curve and AUC per (detector, noise scale, scenario) cell through
the shared :mod:`repro.detectors.roc` helper.

Scoring protocols
-----------------

* **Golden-based** detectors (``euclidean``, ``spectral``) fit on a
  golden reference campaign (cached via
  :func:`~repro.experiments.campaign.get_or_fit_detector`), then
  score a held-out golden evaluation set (the ROC negatives) and each
  suspect set (the positives) on the standard decimated ED windows.
* **Reference-free** detectors (``spectral_median``, ``persistence``)
  are fitted on **zero windows** — the transductive protocol — and
  score the pooled ``[golden eval; suspect]`` stream in one call on
  full-rate (undecimated) windows, where the clock-harmonic comb of
  an always-on Trojan is resolvable.  The two-to-one golden majority
  anchors the population median to clean behaviour; the detector
  never sees a labelled golden window.

The ``golden`` scenario row is the null experiment: its "suspects"
are more golden windows, so a calibrated detector should land near
AUC 0.5 there and must not report a detection.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.detectors import all_detector_infos, create_detector
from repro.detectors.roc import roc_curve
from repro.errors import ExperimentError
from repro.experiments.campaign import (
    get_or_fit_detector,
    get_or_generate_campaigns,
)

#: Tournament scenarios: the null row plus every implemented Trojan.
SCENARIOS = ("golden", "trojan1", "trojan2", "trojan3", "trojan4", "a2")


def scaled_noise_scenario(scenario: Scenario, scale: float) -> Scenario:
    """*scenario* with every noise magnitude scaled by *scale*.

    Scales both the ambient environment noise and any calibrated
    absolute receiver-noise overrides, so the effective SNR shifts by
    ``-20 log10(scale)`` dB regardless of which source dominates a
    receiver.  ``scale == 1.0`` returns the scenario unchanged (same
    object, same trace-cache identity).
    """
    if scale <= 0:
        raise ExperimentError(f"noise scale must be > 0, got {scale}")
    if scale == 1.0:
        return scenario
    overrides = scenario.noise_overrides
    if overrides is not None:
        overrides = tuple(
            (receiver, rms * scale) for receiver, rms in overrides
        )
    return dataclasses.replace(
        scenario,
        name=f"{scenario.name}-noise{scale:g}x",
        env_noise=scenario.env_noise.scaled(scale),
        noise_overrides=overrides,
    )


@dataclass(frozen=True)
class TournamentCell:
    """One (detector, noise scale, scenario) outcome."""

    auc: float
    detected: bool
    n_neg: int
    n_pos: int
    #: Decimated ROC polyline, ``[{"fpr", "tpr"}, ...]``.
    roc: list


@dataclass(frozen=True)
class TournamentResult:
    """Full sweep outcome."""

    receiver: str
    noise_scales: tuple[float, ...]
    scenarios: tuple[str, ...]
    #: name -> (reference_free, summary).
    detectors: dict
    #: detector -> str(noise scale) -> scenario -> TournamentCell.
    sweep: dict

    def payload(self) -> dict:
        return {
            "receiver": self.receiver,
            "noise_scales": [float(s) for s in self.noise_scales],
            "scenarios": list(self.scenarios),
            "detectors": {
                name: {
                    "reference_free": bool(info["reference_free"]),
                    "summary": info["summary"],
                }
                for name, info in self.detectors.items()
            },
            "sweep": {
                name: {
                    scale: {
                        scen: {
                            "auc": cell.auc,
                            "detected": cell.detected,
                            "n_neg": cell.n_neg,
                            "n_pos": cell.n_pos,
                            "roc": cell.roc,
                        }
                        for scen, cell in by_scenario.items()
                    }
                    for scale, by_scenario in by_scale.items()
                }
                for name, by_scale in self.sweep.items()
            },
        }

    def format(self) -> str:
        lines = ["detector tournament (AUC; * = stream flagged)"]
        name_w = max(len(n) for n in self.sweep)
        for scale in self.noise_scales:
            key = f"{scale:g}"
            lines.append(f"noise x{key}:")
            header = "  " + " " * name_w + "  " + "  ".join(
                f"{scen:>8s}" for scen in self.scenarios
            )
            lines.append(header)
            for name, by_scale in self.sweep.items():
                cells = by_scale[key]
                row = "  ".join(
                    f"{cells[scen].auc:7.3f}{'*' if cells[scen].detected else ' '}"
                    for scen in self.scenarios
                )
                lines.append(f"  {name:<{name_w}}  {row}")
        return "\n".join(lines)


def _enables(scenario_name: str) -> tuple[str, ...]:
    return () if scenario_name == "golden" else (scenario_name,)


def run_detector_tournament(
    chip: Chip,
    scenario: Scenario,
    n_reference: int = 384,
    n_eval: int = 384,
    n_suspect: int = 192,
    noise_scales: tuple[float, ...] = (0.5, 1.0, 2.0),
    receiver: str = "sensor",
    detectors: tuple[str, ...] | None = None,
) -> TournamentResult:
    """Sweep every (detector, noise scale, scenario) cell.

    Parameters mirror the registry experiment: *n_reference* golden
    windows fit the golden-based detectors, *n_eval* held-out golden
    windows are the ROC negatives, *n_suspect* windows per scenario
    are the positives.  *detectors* defaults to the whole registry.
    """
    if n_eval < 2 or n_suspect < 2:
        raise ExperimentError("need at least two windows per ROC class")
    infos = {
        info.name: info
        for info in all_detector_infos()
        if detectors is None or info.name in detectors
    }
    if detectors is not None:
        missing = sorted(set(detectors) - set(infos))
        if missing:
            raise ExperimentError(f"unknown detectors {missing}")
    sweep: dict = {name: {} for name in infos}
    # Suspect windows: decimated for the golden-based plugins, full-rate
    # (decimate=1) for the reference-free ones.
    decimations = tuple(
        d for d in (None, 1)
        if any((d == 1) == info.reference_free for info in infos.values())
    )

    for scale in noise_scales:
        scen = scaled_noise_scenario(scenario, scale)
        key = f"{scale:g}"

        def ed(enables, n, role, decimate):
            params = dict(
                n_traces=n,
                receivers=(receiver,),
                trojan_enables=enables,
                rng_role=role,
            )
            if decimate is not None:
                params["decimate"] = decimate
            return ("ed", params)

        # Every campaign of this noise scale in one request list, so
        # the campaigns of one shape share a lane-packed pass.
        requests = {
            "fit": ed((), n_reference, "tournament/fit", None),
            "eval_dec": ed((), n_eval, "tournament/eval", None),
            "eval_raw": ed((), n_eval, "tournament/eval", 1),
        }
        for scenario_name in SCENARIOS:
            for decimate in decimations:
                requests[(scenario_name, decimate)] = ed(
                    _enables(scenario_name), n_suspect,
                    "tournament/suspect", decimate,
                )
        traces = {
            label: t[receiver]
            for label, t in zip(
                requests,
                get_or_generate_campaigns(chip, scen, list(requests.values())),
            )
        }
        ref_dec, eval_dec, eval_raw = (
            traces["fit"], traces["eval_dec"], traces["eval_raw"]
        )
        fit_params = requests["fit"][1]

        for name, info in infos.items():
            cells: dict = {}
            if info.reference_free:
                detector = create_detector(name).fit(np.empty((0, 0)))
            else:
                detector = get_or_fit_detector(
                    chip, scen, "ed", fit_params, ref_dec,
                    detector_name=name,
                )
                neg = detector.score(eval_dec)
            for scenario_name in SCENARIOS:
                if info.reference_free:
                    suspect = traces[(scenario_name, 1)]
                    scores = detector.score(
                        np.vstack([eval_raw, suspect])
                    )
                    neg_s, pos_s = scores[:n_eval], scores[n_eval:]
                    decision = detector.decide(scores)
                else:
                    suspect = traces[(scenario_name, None)]
                    neg_s, pos_s = neg, detector.score(suspect)
                    decision = detector.decide(pos_s)
                curve = roc_curve(neg_s, pos_s)
                cells[scenario_name] = TournamentCell(
                    auc=curve.auc,
                    detected=bool(decision.detected),
                    n_neg=int(neg_s.shape[0]),
                    n_pos=int(pos_s.shape[0]),
                    roc=curve.points(),
                )
            sweep[name][key] = cells

    return TournamentResult(
        receiver=receiver,
        noise_scales=tuple(float(s) for s in noise_scales),
        scenarios=SCENARIOS,
        detectors={
            name: {
                "reference_free": info.reference_free,
                "summary": info.summary,
            }
            for name, info in infos.items()
        },
        sweep=sweep,
    )
