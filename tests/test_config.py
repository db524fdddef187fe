"""Tests for the unified runtime configuration (:mod:`repro.config`).

Covers the resolution precedence (call argument > environment >
default), the per-knob validation error types (which must stay the
historical domain errors, not a new blanket type), the ``describe()``
snapshot round trip, the single-decision pool-degrade rule, and the
knob table of ``docs/CONFIG.md`` against the config itself.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.config import (
    CACHE_DIR_ENV,
    CACHE_MB_ENV,
    DETECTOR_ENV_VAR,
    DEFAULT_CACHE_MB,
    SENSOR_ARRAY_ENV_VAR,
    SMOKE_ENV_VAR,
    WORKERS_ENV_VAR,
    ReproConfig,
    parse_sensor_array,
    active_config,
    use_config,
)
from repro.errors import ConfigError, ExperimentError
from repro.experiments.parallel import resolve_workers
from repro.logic.simulator import PackedState


class TestPrecedence:
    def test_defaults_with_empty_environment(self):
        cfg = ReproConfig.resolve(environ={})
        assert cfg.workers is None
        assert cfg.sim_backend == "auto"
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
            CACHE_DIR_ENV: "/tmp/traces",
            CACHE_MB_ENV: "64",
            SMOKE_ENV_VAR: "1",
            DETECTOR_ENV_VAR: "spectral_median",
        })
        assert cfg.workers == 3
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
            environ={WORKERS_ENV_VAR: "3", DETECTOR_ENV_VAR: "spectral"},
            workers=7,
            detector="persistence",
        )
        assert cfg.workers == 7
        assert cfg.detector == "persistence"

    def test_argument_restating_the_default_still_wins(self):
        cfg = ReproConfig.resolve(
            environ={DETECTOR_ENV_VAR: "spectral"}, detector="euclidean"
        )
        assert cfg.detector == "euclidean"

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

    # The EM chunk budget is now a fixed module constant
    # (repro.em.chunking.CACHE_CHUNK_BYTES): the em_chunk_bytes field is
    # gone, REPRO_EM_CHUNK_MB is inert, and old snapshots naming the
    # field are rejected.

    def test_non_numeric_chunk(self):
        # Once an ExperimentError; the retired variable is now ignored.
        assert ReproConfig.resolve(
            environ={"REPRO_EM_CHUNK_MB": "not-a-number"}
        ) == ReproConfig.resolve(environ={})

    def test_non_positive_chunk(self):
        with pytest.raises(TypeError):
            ReproConfig(em_chunk_bytes=0)
        with pytest.raises(ConfigError, match="unknown config override"):
            ReproConfig.resolve(environ={}, em_chunk_bytes=0)
        snapshot = {**ReproConfig().describe(), "em_chunk_bytes": 1 << 20}
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReproConfig(**snapshot)

    def test_unknown_backend(self):
        # The simulator has one representation: the one
        # remaining field is pinned at "auto", the retired environment
        # variable is ignored (even a bogus value), and old snapshots
        # naming "bool" or "packed" are rejected.
        assert ReproConfig(sim_backend="auto").sim_backend == "auto"
        for bad in ("bool", "packed", "bogus", ""):
            with pytest.raises(ConfigError, match="sim_backend"):
                ReproConfig(sim_backend=bad)
            with pytest.raises(ConfigError, match="sim_backend"):
                ReproConfig.resolve(environ={}, sim_backend=bad)
        for raw in ("bool", "packed", "bogus"):
            assert ReproConfig.resolve(
                environ={"REPRO_SIM_BACKEND": raw}
            ) == ReproConfig.resolve(environ={})
        for bad in ("bool", "packed"):
            snapshot = {**ReproConfig().describe(), "sim_backend": bad}
            with pytest.raises(ConfigError, match="sim_backend"):
                ReproConfig(**snapshot)

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
            ReproConfig(**snapshot)

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
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReproConfig(**snapshot)

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
            ReproConfig(bench_smoke="yes")
        with pytest.raises(ConfigError):
            ReproConfig(host_cpus=-1)


class TestSnapshot:
    def test_describe_round_trip(self):
        cfg = ReproConfig(
            workers=4,
            detector="spectral",
            cache_dir="/tmp/c",
            cache_mb=16,
            host_cpus=8,
        )
        snapshot = cfg.describe()
        assert snapshot["workers"] == 4
        assert snapshot["host_cpus"] == 8
        assert ReproConfig(**snapshot) == cfg

    def test_snapshot_is_json_clean(self):
        import json

        doc = json.dumps(ReproConfig.resolve(environ={}).describe())
        restored = ReproConfig(**json.loads(doc))
        assert restored == ReproConfig.resolve(environ={})

    def test_unknown_snapshot_key_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReproConfig(workerz=4)


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

    def test_consumers_read_the_pinned_config(self, monkeypatch, tmp_path):
        from repro.io.cache import TraceCache

        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_workers() == 5
        assert TraceCache.from_env().root == tmp_path / "env"
        pinned = ReproConfig(workers=3, cache_dir=str(tmp_path / "pinned"))
        with use_config(pinned):
            assert resolve_workers() == 3
            assert TraceCache.from_env().root == tmp_path / "pinned"
        with use_config(ReproConfig(workers=3)):
            assert TraceCache.from_env() is None

    def test_simulator_ignores_sim_backend_variable(self, monkeypatch):
        # REPRO_SIM_BACKEND is no longer read: every batch runs on
        # lane words, one word per net for a single lane.
        from repro.logic import CompiledNetlist, NetlistBuilder

        b = NetlistBuilder("tiny")
        b.mark_output(b.gate("INV", b.input("a")))
        sim = CompiledNetlist(b.build())
        for raw in ("bool", "packed", "bogus"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", raw)
            assert sim.reset(batch=1).words.shape == (sim.num_nets, 1)
            assert isinstance(sim.reset(batch=2), PackedState)
            assert isinstance(sim.reset(batch=512), PackedState)


class TestPoolDegrade:
    """The single-CPU auto-degrade is decided once, in the config."""

    def test_single_cpu_disallows_pool(self):
        assert ReproConfig(host_cpus=1).pool_allowed is False

    def test_multi_cpu_allows_pool(self):
        assert ReproConfig(host_cpus=8).pool_allowed is True

    # The force_pool field and REPRO_FORCE_POOL are retired: the pool
    # follows host_cpus alone (on one CPU it measured 0.79x of serial),
    # and tests that need the pool pin host_cpus=2 instead.

    def test_force_pool_overrides_single_cpu(self):
        with pytest.raises(TypeError):
            ReproConfig(host_cpus=1, force_pool=True)
        assert ReproConfig(host_cpus=2).pool_allowed is True

    def test_force_pool_env_applies(self):
        # The retired variable no longer applies: one CPU, no pool.
        cfg = ReproConfig.resolve(
            environ={"REPRO_FORCE_POOL": "1"}, host_cpus=1
        )
        assert cfg.pool_allowed is False
        assert cfg == ReproConfig.resolve(environ={}, host_cpus=1)

    def test_config_override_beats_force_pool_env(self):
        with pytest.raises(ConfigError, match="unknown config override"):
            ReproConfig.resolve(
                environ={"REPRO_FORCE_POOL": "1"},
                force_pool=False,
                host_cpus=1,
            )
        snapshot = {**ReproConfig().describe(), "force_pool": True}
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReproConfig(**snapshot)

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
        assert ReproConfig(**cfg.describe()) == cfg


CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "CONFIG.md"


def _knob_table() -> tuple[list[str], list[str]]:
    """The environment variables and config fields the knob table of
    ``docs/CONFIG.md`` names, one per row (``—`` rows name no variable)."""
    section = CONFIG_DOC.read_text(encoding="utf-8").split("## The knobs")[1]
    rows = [line for line in section.split("\n## ")[0].splitlines()
            if line.startswith("|")][2:]  # drop header and rule
    env_vars, field_names = [], []
    for row in rows:
        env_cell, field_cell = row.strip("|").split("|")[:2]
        env_vars += re.findall(r"`(REPRO_\w+)`", env_cell)
        field_names += re.findall(r"`(\w+)`", field_cell)
    return env_vars, field_names


class _ReadRecorder(dict):
    """An empty environment that records every variable read from it."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return default


def test_config_doc_knob_table_matches_the_config():
    # A row left behind for a retired knob, or a knob without a row,
    # fails here.
    env_vars, field_names = _knob_table()
    assert sorted(field_names) == sorted(f.name for f in fields(ReproConfig))
    environ = _ReadRecorder()
    ReproConfig.resolve(environ=environ)
    assert sorted(env_vars) == sorted(environ.read)
