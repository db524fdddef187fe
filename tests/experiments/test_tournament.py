"""Tests for the detector tournament experiment (structure, not AUC:
the detection-quality acceptance lives in tests/detectors and the CI
detector-smoke job)."""

from __future__ import annotations

import json

import pytest

from repro.detectors.registry import REGISTRY
from repro.errors import ExperimentError
from repro.experiments import run_experiment, validate_artifact
from repro.experiments.tournament import (
    SCENARIOS,
    run_detector_tournament,
    scaled_noise_scenario,
)


class TestScaledNoiseScenario:
    def test_unit_scale_is_identity(self, sim_scenario):
        assert scaled_noise_scenario(sim_scenario, 1.0) is sim_scenario

    def test_scales_env_noise_and_overrides(self, sim_scenario):
        scaled = scaled_noise_scenario(sim_scenario, 2.0)
        assert scaled.name == f"{sim_scenario.name}-noise2x"
        assert scaled.env_noise == sim_scenario.env_noise.scaled(2.0)
        if sim_scenario.noise_overrides is not None:
            assert scaled.noise_overrides == tuple(
                (receiver, rms * 2.0)
                for receiver, rms in sim_scenario.noise_overrides
            )

    def test_non_positive_scale_rejected(self, sim_scenario):
        with pytest.raises(ExperimentError, match="noise scale"):
            scaled_noise_scenario(sim_scenario, 0.0)


class TestTournamentStructure:
    def test_window_minimums(self, chip, sim_scenario):
        with pytest.raises(ExperimentError, match="at least two"):
            run_detector_tournament(chip, sim_scenario, n_eval=1)

    def test_unknown_detector_selection(self, chip, sim_scenario):
        with pytest.raises(ExperimentError, match="unknown detectors"):
            run_detector_tournament(
                chip, sim_scenario, detectors=("bogus",)
            )

    def test_tiny_run_emits_schema_valid_artifact(self):
        result = run_experiment(
            "detector_tournament",
            smoke=True,
            params={
                "n_reference": 32,
                "n_eval": 16,
                "n_suspect": 8,
                "noise_scales": (1.0,),
            },
        )
        validate_artifact(result)
        payload = result.payload
        assert set(payload["sweep"]) == set(REGISTRY)
        assert tuple(payload["scenarios"]) == SCENARIOS
        assert payload["noise_scales"] == [1.0]
        for name, by_scale in payload["sweep"].items():
            assert set(by_scale) == {"1"}
            cells = by_scale["1"]
            assert set(cells) == set(SCENARIOS)
            for cell in cells.values():
                assert 0.0 <= cell["auc"] <= 1.0
                assert cell["n_neg"] == 16
                assert cell["n_pos"] == 8
                assert cell["roc"][0] == {"fpr": 0.0, "tpr": 0.0}
                assert cell["roc"][-1] == {"fpr": 1.0, "tpr": 1.0}
        ref_free = {
            name: info["reference_free"]
            for name, info in payload["detectors"].items()
        }
        assert ref_free == {
            "euclidean": False,
            "spectral": False,
            "spectral_median": True,
            "persistence": True,
        }
        assert "detector tournament" in result.text
        # The artifact survives a JSON round trip bit-for-bit.
        assert json.loads(result.to_json_bytes())["payload"] == payload
