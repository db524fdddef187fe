"""Tests for the experiment registry and the RunResult envelope."""

from __future__ import annotations

import json

import pytest

from repro.config import ReproConfig
from repro.errors import ExperimentError
from repro.experiments import (
    REGISTRY,
    RunResult,
    all_specs,
    get_spec,
    run_experiment,
    run_euclidean_experiment,
    run_table1,
    shared_chip,
    validate_artifact,
    validate_payload,
)
from repro.experiments.campaign import calibrated
from repro.chip import simulation_scenario


EXPECTED_EXPERIMENTS = {
    "table1", "snr", "snr_silicon", "euclidean", "fig4",
    "fig6_histograms", "fig6_spectra", "latency", "ablation",
    "leakage", "localization", "localization_array", "baseline_power",
    "detector_tournament",
}


class TestRegistry:
    def test_all_fourteen_experiments_registered(self):
        assert set(REGISTRY) == EXPECTED_EXPERIMENTS
        assert len(all_specs()) == 14

    def test_specs_are_well_formed(self):
        for spec in all_specs():
            assert spec.scenario in ("sim", "sil", "none")
            assert spec.schema, f"{spec.name} has no payload schema"
            assert set(spec.smoke_params) == set(spec.params)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_spec("fig99")

    def test_unknown_parameter_override(self):
        with pytest.raises(ExperimentError, match="unknown parameters"):
            run_experiment("table1", params={"n_rows": 3})


class TestValidatePayload:
    def test_scalars(self):
        validate_payload(3, "int")
        validate_payload(3.5, "number")
        validate_payload(3, "number")
        validate_payload("x", "str")
        validate_payload(True, "bool")
        validate_payload(None, "int?")
        validate_payload({"anything": [1]}, "any")

    def test_bool_is_not_a_number(self):
        with pytest.raises(ExperimentError, match="bool"):
            validate_payload(True, "int")
        with pytest.raises(ExperimentError, match="bool"):
            validate_payload(True, "number")

    def test_type_mismatch_names_the_path(self):
        with pytest.raises(ExperimentError, match=r"payload\.a\[1\]"):
            validate_payload({"a": [1, "two"]}, {"a": ["int"]})

    def test_object_keys_are_exact(self):
        schema = {"x": "int", "y": "int"}
        with pytest.raises(ExperimentError, match="missing"):
            validate_payload({"x": 1}, schema)
        with pytest.raises(ExperimentError, match="unexpected"):
            validate_payload({"x": 1, "y": 2, "z": 3}, schema)

    def test_mapping_wildcard(self):
        validate_payload({"a": 1.0, "b": 2.0}, {"*": "number"})
        with pytest.raises(ExperimentError):
            validate_payload({"a": "nope"}, {"*": "number"})

    def test_null_only_where_allowed(self):
        validate_payload({"t": None}, {"*": "int?"})
        with pytest.raises(ExperimentError):
            validate_payload({"t": None}, {"*": "int"})


class TestRunResult:
    def _result(self) -> RunResult:
        return RunResult(
            spec="demo",
            scenario="sim",
            seed=1,
            smoke=True,
            config=ReproConfig.resolve(environ={}).describe(),
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
            payload={"value": 1.5},
            text="demo",
            elapsed_seconds=0.25,
        )

    def test_save_load_round_trip(self, tmp_path):
        result = self._result()
        path = result.save(tmp_path / "sub" / "demo.json")
        loaded = RunResult.load(path)
        assert loaded == result

    def test_json_is_canonical(self):
        doc = json.loads(self._result().to_json_bytes())
        assert doc["schema_version"] == 1
        assert doc["payload"] == {"value": 1.5}

    def test_missing_and_unknown_fields_rejected(self):
        doc = json.loads(self._result().to_json_bytes())
        del doc["payload"]
        with pytest.raises(ExperimentError, match="missing"):
            RunResult.from_json_bytes(json.dumps(doc).encode())
        doc["payload"] = {}
        doc["surprise"] = 1
        with pytest.raises(ExperimentError, match="unknown fields"):
            RunResult.from_json_bytes(json.dumps(doc).encode())

    def test_config_snapshot_round_trips_through_artifact(self, tmp_path):
        cfg = ReproConfig(workers=2, detector="spectral", host_cpus=4)
        result = self._result()
        result.config = cfg.describe()
        loaded = RunResult.load(result.save(tmp_path / "demo.json"))
        assert ReproConfig(**loaded.config) == cfg


class TestRunExperiment:
    def test_table1_payload_matches_direct_driver(self):
        result = run_experiment("table1", smoke=True)
        direct = run_table1(shared_chip(seed=1))
        expected = {
            row.circuit: {
                "gates": row.gate_count,
                "percent": row.percentage,
                "area_based": row.is_area_percentage,
            }
            for row in direct.rows
        }
        assert result.payload == {"rows": expected}
        assert result.text == direct.format()
        assert result.spec == "table1"
        assert result.smoke is True

    def test_euclidean_payload_matches_direct_driver(self):
        result = run_experiment("euclidean", smoke=True)
        chip = shared_chip(seed=1)
        scenario = calibrated(chip, simulation_scenario())
        direct = run_euclidean_experiment(
            chip,
            scenario,
            receiver="sensor",
            n_golden=128,
            n_suspect=64,
            trojans=("trojan4",),
        )
        assert result.payload["separations"] == direct.separations
        assert result.payload["threshold"] == direct.threshold
        # The artifact must survive a JSON round trip bit-for-bit.
        dumped = json.loads(result.to_json_bytes())
        assert dumped["payload"] == result.payload

    def test_artifact_embeds_config_and_metrics(self, tmp_path):
        cfg = ReproConfig.resolve(environ={}, workers=1)
        result = run_experiment("euclidean", smoke=True, config=cfg)
        assert result.config == cfg.describe()
        assert ReproConfig(**result.config) == cfg
        counters = result.metrics["counters"]
        assert counters["acquire.cycles"] > 0
        loaded = RunResult.load(result.save(tmp_path / "euclidean.json"))
        assert validate_artifact(loaded) is loaded

    def test_explicit_config_overrides_environment(self, monkeypatch):
        # Regression: a config passed by argument must beat REPRO_* env
        # vars for the whole run.
        monkeypatch.setenv("REPRO_DETECTOR", "spectral")
        cfg = ReproConfig.resolve(environ={}, detector="persistence")
        result = run_experiment("table1", smoke=True, config=cfg)
        assert result.config["detector"] == "persistence"
