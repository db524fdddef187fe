"""Tests for the unified runtime configuration (:mod:`repro.config`).

Covers the resolution precedence (call argument > environment >
default), the per-knob validation error types (which must stay the
historical domain errors, not a new blanket type), the ``describe()``
snapshot round trip, and the single-decision pool-degrade rule.
"""

from __future__ import annotations

import pytest

from repro.config import (
    BACKEND_ENV_VAR,
    CACHE_DIR_ENV,
    CACHE_MB_ENV,
    CHUNK_ENV_VAR,
    DETECTOR_ENV_VAR,
    DEFAULT_CACHE_MB,
    DEFAULT_CHUNK_BYTES,
    FORCE_POOL_ENV_VAR,
    SENSOR_ARRAY_ENV_VAR,
    SMOKE_ENV_VAR,
    WORKERS_ENV_VAR,
    ReproConfig,
    parse_sensor_array,
    active_config,
    use_config,
)
from repro.em.chunking import resolve_chunk_bytes
from repro.errors import (
    ConfigError,
    EmModelError,
    ExperimentError,
    SimulationError,
)
from repro.experiments.parallel import resolve_workers
from repro.logic.simulator import resolve_backend


class TestPrecedence:
    def test_defaults_with_empty_environment(self):
        cfg = ReproConfig.resolve(environ={})
        assert cfg.workers is None
        assert cfg.force_pool is False
        assert cfg.sim_backend == "auto"
        assert cfg.em_chunk_bytes == DEFAULT_CHUNK_BYTES
        assert cfg.cache_dir is None
        assert cfg.cache_mb == DEFAULT_CACHE_MB
        assert cfg.bench_smoke is False
        assert cfg.fleet_scoring == "batched"
        assert cfg.fleet_shards == 1
        assert cfg.detector == "euclidean"
        assert cfg.host_cpus >= 1

    def test_environment_beats_default(self):
        cfg = ReproConfig.resolve(environ={
            WORKERS_ENV_VAR: "3",
            FORCE_POOL_ENV_VAR: "1",
            BACKEND_ENV_VAR: "packed",
            CHUNK_ENV_VAR: "8",
            CACHE_DIR_ENV: "/tmp/traces",
            CACHE_MB_ENV: "64",
            SMOKE_ENV_VAR: "1",
            DETECTOR_ENV_VAR: "spectral_median",
        })
        assert cfg.workers == 3
        assert cfg.force_pool is True
        assert cfg.sim_backend == "packed"
        assert cfg.em_chunk_bytes == 8 * 1024 * 1024
        assert cfg.cache_dir == "/tmp/traces"
        assert cfg.cache_mb == 64
        assert cfg.bench_smoke is True
        assert cfg.detector == "spectral_median"

    def test_detector_argument_beats_environment(self):
        cfg = ReproConfig.resolve(
            environ={DETECTOR_ENV_VAR: "spectral"}, detector="persistence"
        )
        assert cfg.detector == "persistence"

    def test_argument_beats_environment(self):
        cfg = ReproConfig.resolve(
            environ={WORKERS_ENV_VAR: "3", BACKEND_ENV_VAR: "packed"},
            workers=7,
            sim_backend="bool",
        )
        assert cfg.workers == 7
        assert cfg.sim_backend == "bool"

    def test_argument_restating_the_default_still_wins(self):
        cfg = ReproConfig.resolve(
            environ={BACKEND_ENV_VAR: "packed"}, sim_backend="auto"
        )
        assert cfg.sim_backend == "auto"

    def test_empty_cache_dir_means_cache_off(self):
        assert ReproConfig.resolve(
            environ={CACHE_DIR_ENV: ""}
        ).cache_dir is None
        assert ReproConfig(cache_dir="").cache_dir is None

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config override"):
            ReproConfig.resolve(environ={}, worker_count=4)


class TestValidation:
    """Invalid values keep raising the historical per-knob errors."""

    def test_non_integer_workers(self):
        with pytest.raises(ExperimentError, match="not an integer"):
            ReproConfig.resolve(environ={WORKERS_ENV_VAR: "many"})

    def test_zero_workers(self):
        with pytest.raises(ExperimentError, match=">= 1"):
            ReproConfig(workers=0)

    def test_non_numeric_chunk(self):
        with pytest.raises(EmModelError, match="not a number"):
            ReproConfig.resolve(environ={CHUNK_ENV_VAR: "not-a-number"})

    def test_non_positive_chunk(self):
        with pytest.raises(EmModelError, match="positive"):
            ReproConfig(em_chunk_bytes=0)

    def test_unknown_backend(self):
        with pytest.raises(SimulationError, match="bogus"):
            ReproConfig.resolve(environ={BACKEND_ENV_VAR: "bogus"})

    def test_unknown_fleet_scoring_mode(self):
        # The fleet engine picks its own scoring path: the one
        # remaining field is pinned at "batched", its retired
        # environment variable is inert, and old snapshots naming the
        # per-session mode are rejected.
        assert ReproConfig(fleet_scoring="batched").fleet_scoring == "batched"
        for bad in ("sequential", "serial"):
            with pytest.raises(ConfigError, match="fleet_scoring"):
                ReproConfig(fleet_scoring=bad)
        assert ReproConfig.resolve(
            environ={"REPRO_FLEET_SCORING": "sequential"}
        ) == ReproConfig.resolve(environ={})
        snapshot = {**ReproConfig().describe(), "fleet_scoring": "sequential"}
        with pytest.raises(ConfigError, match="fleet_scoring"):
            ReproConfig.from_snapshot(snapshot)

    def test_fleet_shard_knobs(self):
        # The sharded transport is gone: the one remaining shard field
        # is pinned at 1 and its retired environment variable is inert.
        assert ReproConfig(fleet_shards=1).fleet_shards == 1
        for bad in (0, 2, 4, True, 1.0, "1"):
            with pytest.raises(ConfigError, match="sharded fleet transport"):
                ReproConfig(fleet_shards=bad)
        assert ReproConfig.resolve(
            environ={"REPRO_FLEET_SHARDS": "4"}
        ).fleet_shards == 1

    def test_fleet_ingest_knob_is_retired(self):
        # Every fleet campaign streams: the ingest field is gone, its
        # environment variable is inert, and old snapshots naming it
        # are rejected.
        assert ReproConfig.resolve(
            environ={"REPRO_FLEET_INGEST": "replay"}
        ) == ReproConfig.resolve(environ={})
        with pytest.raises(ConfigError, match="unknown config override"):
            ReproConfig.resolve(environ={}, fleet_ingest="stream")
        snapshot = {**ReproConfig().describe(), "fleet_ingest": "replay"}
        with pytest.raises(ConfigError, match="unknown config snapshot"):
            ReproConfig.from_snapshot(snapshot)

    def test_empty_detector_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ReproConfig(detector="")
        with pytest.raises(ConfigError, match="non-empty"):
            ReproConfig.resolve(environ={DETECTOR_ENV_VAR: ""})
        with pytest.raises(ConfigError, match="non-empty"):
            ReproConfig(detector=42)

    def test_non_integer_cache_mb(self):
        with pytest.raises(ExperimentError, match="not an integer"):
            ReproConfig.resolve(environ={CACHE_MB_ENV: "big"})

    def test_non_positive_cache_mb(self):
        with pytest.raises(ExperimentError, match="positive"):
            ReproConfig(cache_mb=0)

    def test_wrong_types_rejected_at_the_boundary(self):
        with pytest.raises(ConfigError):
            ReproConfig(workers=True)
        with pytest.raises(ConfigError):
            ReproConfig(force_pool="yes")
        with pytest.raises(ConfigError):
            ReproConfig(host_cpus=-1)


class TestSnapshot:
    def test_describe_round_trip(self):
        cfg = ReproConfig(
            workers=4,
            sim_backend="packed",
            em_chunk_bytes=1 << 20,
            cache_dir="/tmp/c",
            cache_mb=16,
            host_cpus=8,
        )
        snapshot = cfg.describe()
        assert snapshot["workers"] == 4
        assert snapshot["host_cpus"] == 8
        assert ReproConfig.from_snapshot(snapshot) == cfg

    def test_snapshot_is_json_clean(self):
        import json

        doc = json.dumps(ReproConfig.resolve(environ={}).describe())
        restored = ReproConfig.from_snapshot(json.loads(doc))
        assert restored == ReproConfig.resolve(environ={})

    def test_unknown_snapshot_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config snapshot"):
            ReproConfig.from_snapshot({"workerz": 4})


class TestActiveConfig:
    def test_environment_changes_are_seen_immediately(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert active_config().workers == 5
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert active_config().workers is None

    def test_pinned_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        with use_config(ReproConfig(workers=2)):
            assert active_config().workers == 2
            assert resolve_workers() == 2
        assert active_config().workers == 5

    def test_use_config_nests(self):
        with use_config(ReproConfig(workers=2)):
            with use_config(ReproConfig(workers=3)):
                assert active_config().workers == 3
            assert active_config().workers == 2

    def test_consumers_read_the_pinned_config(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "2")
        monkeypatch.setenv(BACKEND_ENV_VAR, "packed")
        assert resolve_chunk_bytes() == 2 * 1024 * 1024
        assert resolve_backend(1) == "packed"
        pinned = ReproConfig(em_chunk_bytes=42, sim_backend="bool")
        with use_config(pinned):
            assert resolve_chunk_bytes() == 42
            assert resolve_backend(512) == "bool"
        # ``auto`` is bool for a single lane, packed from batch 2 up.
        with use_config(ReproConfig(sim_backend="auto")):
            assert resolve_backend(1) == "bool"
            assert resolve_backend(2) == "packed"
            assert resolve_backend(8) == "packed"


class TestPoolDegrade:
    """The single-CPU auto-degrade is decided once, in the config."""

    def test_single_cpu_disallows_pool(self):
        assert ReproConfig(host_cpus=1).pool_allowed is False

    def test_multi_cpu_allows_pool(self):
        assert ReproConfig(host_cpus=8).pool_allowed is True

    def test_force_pool_overrides_single_cpu(self):
        assert ReproConfig(host_cpus=1, force_pool=True).pool_allowed is True

    def test_force_pool_env_applies(self):
        cfg = ReproConfig.resolve(
            environ={FORCE_POOL_ENV_VAR: "1"}, host_cpus=1
        )
        assert cfg.pool_allowed is True

    def test_config_override_beats_force_pool_env(self):
        # Regression: an explicit force_pool=False argument must win
        # over REPRO_FORCE_POOL=1 (argument > environment).
        cfg = ReproConfig.resolve(
            environ={FORCE_POOL_ENV_VAR: "1"},
            force_pool=False,
            host_cpus=1,
        )
        assert cfg.force_pool is False
        assert cfg.pool_allowed is False

    def test_effective_workers_defaults_to_host_cpus(self):
        assert ReproConfig(host_cpus=6).effective_workers() == 6
        assert ReproConfig(workers=2, host_cpus=6).effective_workers() == 2

    def test_cache_bytes(self):
        assert ReproConfig().cache_bytes() is None
        cfg = ReproConfig(cache_dir="/tmp/c", cache_mb=3)
        assert cfg.cache_bytes() == 3 * 1024 * 1024


class TestSensorArrayKnob:
    def test_unset_by_default(self):
        cfg = ReproConfig.resolve(environ={})
        assert cfg.sensor_array is None
        assert cfg.sensor_array_dims() is None

    def test_parse_canonicalises(self):
        assert parse_sensor_array("") is None
        assert parse_sensor_array("4x4") == "4x4"
        assert parse_sensor_array("04x4") == "4x4"
        assert parse_sensor_array("2X8") == "2x8"

    @pytest.mark.parametrize("raw", ["4", "4x", "x4", "4x4x4", "axb",
                                     "0x4", "4x-1"])
    def test_parse_rejects_malformed(self, raw):
        with pytest.raises(ConfigError):
            parse_sensor_array(raw)

    def test_environment_resolution(self):
        cfg = ReproConfig.resolve(environ={SENSOR_ARRAY_ENV_VAR: "3x5"})
        assert cfg.sensor_array == "3x5"
        assert cfg.sensor_array_dims() == (3, 5)

    def test_constructor_canonicalises_and_validates(self):
        assert ReproConfig(sensor_array="08x2").sensor_array == "8x2"
        with pytest.raises(ConfigError):
            ReproConfig(sensor_array="nope")
        with pytest.raises(ConfigError):
            ReproConfig(sensor_array=4)  # type: ignore[arg-type]

    def test_describe_round_trip(self):
        cfg = ReproConfig(sensor_array="4x4")
        assert ReproConfig.from_snapshot(cfg.describe()) == cfg
