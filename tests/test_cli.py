"""Tests for the unified ``repro`` command line."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, RunResult, validate_artifact


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        assert "14 experiments" in out
        # Every spec line is followed by its payload schema sketch.
        assert out.count("payload:") == len(REGISTRY)
        assert "hit1:int" in out  # localization_array's schema


class TestDetectors:
    def test_lists_every_detector(self, capsys):
        from repro.detectors.registry import REGISTRY as DETECTORS

        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        for name in DETECTORS:
            assert name in out
        assert "4 detectors" in out
        assert "REPRO_DETECTOR" in out
        assert "detector_tournament" in out


class TestRun:
    def test_no_names_is_an_error(self, capsys):
        assert main(["run"]) == 1
        assert "--all" in capsys.readouterr().err

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_validated_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(
            ["run", "table1", "--smoke", "--out", str(out_dir)]
        ) == 0
        artifact = out_dir / "table1.json"
        assert artifact.is_file()
        loaded = RunResult.load(artifact)
        validate_artifact(loaded)
        assert loaded.spec == "table1"
        assert loaded.smoke is True
        stdout = capsys.readouterr().out
        assert "table1" in stdout
        assert "artifact:" in stdout

    def test_workers_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert main([
            "run", "table1", "--smoke", "--workers", "2",
            "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "table1.json").read_text())
        assert doc["config"]["workers"] == 2

    def test_smoke_env_var_selects_smoke_sizes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert main(["run", "table1", "--out", str(tmp_path)]) == 0
        assert json.loads(
            (tmp_path / "table1.json").read_text()
        )["smoke"] is True

    def test_metrics_flag_prints_snapshot(self, tmp_path, capsys):
        assert main([
            "run", "table1", "--smoke", "--metrics",
            "--out", str(tmp_path),
        ]) == 0
        assert "metrics:" in capsys.readouterr().out


class TestFleetForwarding:
    def test_fleet_subcommand_reaches_the_fleet_cli(self, capsys):
        # An unknown chip id errors out of the fleet CLI immediately,
        # which proves the forwarding without running a campaign.
        assert main(["fleet", "--chips", "not-a-chip"]) == 1
        assert "unknown chips" in capsys.readouterr().err

    def test_fleet_help_is_forwarded(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--help"])
        assert exc.value.code == 0
        assert "--check-oneshot" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", (["--shards", "2"], ["--transport", "inline"])
    )
    def test_fleet_rejects_retired_shard_flags(self, capsys, argv):
        # The sharded transport and its flags are gone; argparse fails
        # before any campaign runs.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", (["--ingest", "replay"], ["--workers", "2"])
    )
    def test_fleet_rejects_retired_ingest_flags(self, capsys, argv):
        # The replay ingest and the threaded ingestor are gone, and
        # their flags with them; argparse fails before any campaign
        # runs.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", (["--scoring", "sequential"], ["--scoring", "batched"])
    )
    def test_fleet_rejects_retired_scoring_flag(self, capsys, argv):
        # The fleet engine picks dense or per-session scoring from the
        # fleet itself; argparse fails before any campaign runs.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
