"""Unit tests for the fleet campaign config and the CLI plumbing.

The end-to-end campaign itself (trace generation through verdicts) is
exercised by CI's ``fleet-smoke`` job via the console entry point; the
tests here cover the pure logic around it.
"""

import threading

import pytest

from repro.errors import ExperimentError
from repro.fleet import (
    DEFAULT_FLEET,
    ChipVerdict,
    FleetCampaignResult,
    FleetConfig,
    run_fleet_campaign,
)
from repro.fleet.cli import _config_from, _parser
from repro.framework.report import Verdict


def test_default_fleet_is_the_paper_lineup():
    ids = [chip_id for chip_id, _ in DEFAULT_FLEET]
    assert ids == [
        "golden", "trojan1", "trojan2", "trojan3", "trojan4", "a2"
    ]
    enables = dict(DEFAULT_FLEET)
    assert enables["golden"] == ()
    assert enables["a2"] == ("a2",)


def test_smoke_config_shrinks_and_accepts_overrides():
    smoke = FleetConfig.smoke()
    full = FleetConfig()
    assert smoke.n_golden < full.n_golden
    assert smoke.n_windows < full.n_windows
    assert smoke.monitor_window < full.monitor_window
    assert smoke.threshold is None and full.threshold == "floor"
    override = FleetConfig.smoke(seed=9, policy="drop_oldest")
    assert override.seed == 9 and override.policy == "drop_oldest"
    assert override.n_golden == smoke.n_golden


def test_fleet_config_ingest_is_stream_only():
    assert FleetConfig().ingest == "stream"
    assert FleetConfig.smoke(ingest="stream").ingest == "stream"
    for bad in ("replay", None, ""):
        with pytest.raises(ExperimentError, match="replay ingest was removed"):
            FleetConfig(ingest=bad)


def test_duplicate_fleet_ids_rejected():
    with pytest.raises(ExperimentError):
        run_fleet_campaign(fleet=(("x", ()), ("x", ("trojan1",))))


def test_failed_campaign_leaves_no_producer_thread():
    # The scheduler rejects queue_depth=0 once the campaigns are
    # acquired; the trace producer must not be left running behind it.
    baseline = threading.active_count()
    config = FleetConfig.smoke(
        queue_depth=0, n_golden=32, n_windows=32, chunk=8,
        monitor_window=8, spectral_cycles=64,
    )
    with pytest.raises(ExperimentError, match="queue depth"):
        run_fleet_campaign(config, fleet=(("golden", ()),))
    assert threading.active_count() == baseline
    assert "fleet-trace-producer" not in {
        t.name for t in threading.enumerate()
    }


def test_cli_maps_args_onto_config(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    args = _parser().parse_args(
        [
            "--seed", "3", "--windows", "48", "--monitor-window", "24",
            "--policy", "drop_oldest", "--drop", "0.1",
            "--journal", "/tmp/j.jsonl",
        ]
    )
    config = _config_from(args)
    assert config.seed == 3
    assert config.n_windows == 48
    assert config.monitor_window == 24
    assert config.policy == "drop_oldest"
    assert config.faults.drop == 0.1
    assert config.journal_path == "/tmp/j.jsonl"
    # Unset args keep the full-size defaults.
    assert config.n_golden == FleetConfig().n_golden


def test_cli_smoke_flag_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    smoke_by_flag = _config_from(_parser().parse_args(["--smoke"]))
    assert smoke_by_flag.n_golden == FleetConfig.smoke().n_golden
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    smoke_by_env = _config_from(_parser().parse_args([]))
    assert smoke_by_env.n_golden == FleetConfig.smoke().n_golden
    # Explicit args still override the smoke preset.
    custom = _config_from(_parser().parse_args(["--windows", "32"]))
    assert custom.n_windows == 32


def _verdict(chip_id, verdict, oneshot):
    return ChipVerdict(
        chip_id=chip_id,
        verdict=verdict,
        time_alarm=verdict in (
            Verdict.SUSPECT_TIME_DOMAIN, Verdict.SUSPECT_BOTH
        ),
        spectral_alarm=verdict in (
            Verdict.SUSPECT_SPECTRAL, Verdict.SUSPECT_BOTH
        ),
        first_alarm_window=None,
        alarm_latency=None,
        oneshot_verdict=oneshot,
        separation=0.1,
        separation_floor=0.2,
    )


def test_campaign_result_flagging_and_consistency():
    verdicts = {
        "golden": _verdict("golden", Verdict.TRUSTED, Verdict.TRUSTED),
        "trojan2": _verdict(
            "trojan2", Verdict.SUSPECT_BOTH, Verdict.SUSPECT_BOTH
        ),
    }
    result = FleetCampaignResult(
        config=FleetConfig(),
        fleet=None,
        verdicts=verdicts,
    )
    assert result.flagged == ("trojan2",)
    assert result.all_match_oneshot
    # Alarm-kind disagreement (time vs spectral) still *matches*: the
    # consistency gate compares alarm/no-alarm, not the alarm flavour.
    verdicts["trojan2"] = _verdict(
        "trojan2", Verdict.SUSPECT_BOTH, Verdict.SUSPECT_SPECTRAL
    )
    assert result.all_match_oneshot
    verdicts["trojan2"] = _verdict(
        "trojan2", Verdict.SUSPECT_BOTH, Verdict.TRUSTED
    )
    assert not result.all_match_oneshot
