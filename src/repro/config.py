"""Unified runtime configuration — every ``REPRO_*`` knob in one place.

The reproduction grew one environment variable at a time: the
campaign runner read ``REPRO_WORKERS``, the trace cache read
``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MB`` and the CI jobs read
``REPRO_BENCH_SMOKE`` — each parsed independently at its point of
use.  :class:`ReproConfig` is the single resolution point for all of
them, with an explicit precedence:

    call argument  >  environment variable  >  built-in default

The environment variable *names* are unchanged — they are the config's
inputs, not a parallel configuration path.  Consumers
(:func:`repro.experiments.parallel.resolve_workers`,
:meth:`repro.io.cache.TraceCache.from_env` and the ``repro`` CLI)
all read the *active* config, which is re-resolved from the
environment on every access unless an explicit config has
been installed with :func:`use_config` — so tests that flip an
environment variable keep seeing the change immediately, while the
CLI can pin one immutable snapshot for a whole run.

:meth:`ReproConfig.describe` produces the JSON snapshot embedded in
every saved :class:`~repro.experiments.result.RunResult` artifact.

See ``docs/CONFIG.md`` for the full knob table.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from repro.errors import ConfigError, ExperimentError

# -- environment variable names (the historical, stable API) -----------

#: Worker-process count for parallel campaign fan-out.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Trace-cache directory (unset/empty = cache off).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Trace-cache size budget, in mebibytes.
CACHE_MB_ENV = "REPRO_CACHE_MB"

#: Set to ``1`` to select reduced CI smoke sizes everywhere.
SMOKE_ENV_VAR = "REPRO_BENCH_SMOKE"

#: Default detector plugin name (see ``repro detectors``).
DETECTOR_ENV_VAR = "REPRO_DETECTOR"

#: Sensor-array grid for array experiments, as ``RxC`` (e.g. ``4x4``);
#: unset/empty = no override (specs use their own default grid).
SENSOR_ARRAY_ENV_VAR = "REPRO_SENSOR_ARRAY"

# -- built-in defaults -------------------------------------------------

#: Default trace-cache size budget when :data:`CACHE_MB_ENV` is unset [MiB].
DEFAULT_CACHE_MB = 2048


def _parse_workers(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ExperimentError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer"
        ) from None


def _parse_cache_mb(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ExperimentError(
            f"{CACHE_MB_ENV}={raw!r} is not an integer"
        ) from None


def parse_sensor_array(raw: str) -> str | None:
    """Validate a ``RxC`` sensor-array grid string (empty = unset).

    Returns the canonical ``"{rows}x{cols}"`` form, so ``04x4`` and
    ``4x4`` resolve to equal configs (and equal cache keys).
    """
    if not raw:
        return None
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(
            f"{SENSOR_ARRAY_ENV_VAR}={raw!r} is not of the form RxC "
            "(e.g. 4x4)"
        )
    try:
        rows, cols = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"{SENSOR_ARRAY_ENV_VAR}={raw!r} has non-integer dimensions"
        ) from None
    if rows < 1 or cols < 1:
        raise ConfigError(
            f"{SENSOR_ARRAY_ENV_VAR}={raw!r}: rows and cols must be >= 1"
        )
    return f"{rows}x{cols}"


@dataclass(frozen=True)
class ReproConfig:
    """Frozen, validated snapshot of every runtime knob.

    Build one with :meth:`resolve` (argument > environment > default)
    or directly with keyword arguments (argument > default, the
    environment ignored).  Validation runs on construction, so an
    invalid value fails at the configuration boundary, not deep inside
    a kernel.
    """

    #: Campaign worker processes; ``None`` means "one per host CPU".
    workers: int | None = None
    #: Logic-simulation representation, fixed at ``"auto"``: the batch
    #: picks it (:meth:`repro.logic.simulator.CompiledNetlist.reset`,
    #: packed from batch 2).  The field stays only because
    #: ``benchmarks/pipeline/run.py`` still pins it; any other value is
    #: rejected.
    sim_backend: str = "auto"
    #: Trace-cache directory; ``None`` disables the cache.
    cache_dir: str | None = None
    #: Trace-cache LRU size budget [MiB].
    cache_mb: int = DEFAULT_CACHE_MB
    #: Reduced CI smoke sizes (benchmarks, fleet campaign, ``repro
    #: run --all``).
    bench_smoke: bool = False
    #: Fleet scoring, fixed at ``"batched"``: the
    #: :class:`~repro.framework.batched.BatchedFleetMonitor` picks
    #: dense or per-session scoring from the fleet.  The field stays
    #: only because ``benchmarks/pipeline/run.py`` still pins it; any
    #: other value is rejected.
    fleet_scoring: str = "batched"
    #: Fleet shard count, fixed at ``1``: the sharded transport was
    #: removed and every fleet run takes the single-process
    #: scheduler.  The field stays only because pinned configs still
    #: name it; any other value is rejected.
    fleet_shards: int = 1
    #: Default detector plugin the framework resolves when no explicit
    #: name is given (``repro detectors`` lists the registry).  The
    #: name is validated against the registry at detector-creation
    #: time, not here — the registry populates on package import and
    #: the config must stay importable without it.
    detector: str = "euclidean"
    #: Sensor-array grid override for array experiments, canonical
    #: ``"RxC"`` or ``None`` (no override).  Like :attr:`detector`, the
    #: value selects among registered experiment geometries; the chip
    #: build validates whether the grid physically fits the die.
    sensor_array: str | None = None
    #: Host CPU count snapshot; ``0`` means "detect now".  The
    #: single-CPU pool auto-degrade decision is taken from this field,
    #: once, instead of re-reading ``os.cpu_count()`` at every
    #: ``run_campaigns`` call.
    host_cpus: int = 0

    def __post_init__(self) -> None:
        if self.workers is not None:
            if not isinstance(self.workers, int) or isinstance(
                self.workers, bool
            ):
                raise ConfigError(
                    f"workers must be an int or None, got {self.workers!r}"
                )
            if self.workers < 1:
                raise ExperimentError(
                    f"worker count must be >= 1, got {self.workers}"
                )
        if not isinstance(self.bench_smoke, bool):
            raise ConfigError(
                f"bench_smoke must be a bool, got {self.bench_smoke!r}"
            )
        if self.sim_backend != "auto":
            raise ConfigError(
                f"sim_backend must be 'auto', got {self.sim_backend!r}: "
                "the batch picks the simulator's representation"
            )
        if self.cache_dir is not None and not self.cache_dir:
            object.__setattr__(self, "cache_dir", None)
        if not isinstance(self.cache_mb, int) or isinstance(
            self.cache_mb, bool
        ):
            raise ConfigError(
                f"cache_mb must be an int, got {self.cache_mb!r}"
            )
        if self.cache_mb <= 0:
            raise ExperimentError(
                f"cache size budget must be positive, got {self.cache_mb}"
            )
        if self.fleet_scoring != "batched":
            raise ConfigError(
                f"fleet_scoring must be 'batched', got "
                f"{self.fleet_scoring!r}: the fleet scoring engine picks "
                "dense or per-session scoring from the fleet"
            )
        if type(self.fleet_shards) is not int or self.fleet_shards != 1:
            raise ConfigError(
                f"fleet_shards must be 1, got {self.fleet_shards!r}: the "
                "sharded fleet transport was removed and every fleet run "
                "takes the single-process scheduler"
            )
        if not isinstance(self.detector, str) or not self.detector:
            raise ConfigError(
                f"detector must be a non-empty string, got {self.detector!r}"
            )
        if self.sensor_array is not None:
            if not isinstance(self.sensor_array, str):
                raise ConfigError(
                    f"sensor_array must be a str or None, "
                    f"got {self.sensor_array!r}"
                )
            object.__setattr__(
                self, "sensor_array", parse_sensor_array(self.sensor_array)
            )
        if not isinstance(self.host_cpus, int) or isinstance(
            self.host_cpus, bool
        ):
            raise ConfigError(
                f"host_cpus must be an int, got {self.host_cpus!r}"
            )
        if self.host_cpus < 0:
            raise ConfigError(
                f"host_cpus must be >= 0, got {self.host_cpus}"
            )
        if self.host_cpus == 0:
            object.__setattr__(self, "host_cpus", os.cpu_count() or 1)

    # -- resolution ----------------------------------------------------
    @classmethod
    def resolve(
        cls,
        environ: Mapping[str, str] | None = None,
        **overrides,
    ) -> "ReproConfig":
        """Resolve a config: override argument > environment > default.

        *overrides* use the dataclass field names (``workers=4``,
        ``detector="spectral"``, ``cache_mb=...``); an override
        that is present always wins over the environment variable, even
        when the override re-states the default.  *environ* substitutes
        for ``os.environ`` (tests).
        """
        env = os.environ if environ is None else environ
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(
                f"unknown config override(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        values = dict(overrides)

        def from_env(field_name: str, env_var: str, parse) -> None:
            if field_name in values:
                return
            raw = env.get(env_var)
            if raw is not None:
                values[field_name] = parse(raw)

        from_env("workers", WORKERS_ENV_VAR, _parse_workers)
        from_env("cache_dir", CACHE_DIR_ENV, lambda raw: raw or None)
        from_env("cache_mb", CACHE_MB_ENV, _parse_cache_mb)
        from_env("bench_smoke", SMOKE_ENV_VAR, lambda raw: raw == "1")
        from_env("detector", DETECTOR_ENV_VAR, str)
        from_env("sensor_array", SENSOR_ARRAY_ENV_VAR, parse_sensor_array)
        return cls(**values)

    # -- derived views -------------------------------------------------
    @property
    def pool_allowed(self) -> bool:
        """Whether campaign fan-out may use a process pool at all.

        On a single-CPU host fork + pickle overhead loses to the serial
        loop (measured 0.79×), so the pool degrades to serial there.
        The decision is a pure function of this (frozen) config — it is
        taken once at resolution time, not re-derived from the
        environment on every ``run_campaigns`` call.  Tests that need
        the pool pin a config with ``host_cpus=2``.
        """
        return self.host_cpus > 1

    def effective_workers(self) -> int:
        """The resolved worker count (``workers`` or one per CPU)."""
        return self.workers if self.workers is not None else self.host_cpus

    def sensor_array_dims(self) -> tuple[int, int] | None:
        """The ``(rows, cols)`` of :attr:`sensor_array`, or ``None``."""
        if self.sensor_array is None:
            return None
        rows, cols = self.sensor_array.split("x")
        return int(rows), int(cols)

    def cache_bytes(self) -> int | None:
        """Cache size budget in bytes, or ``None`` when the cache is off."""
        if self.cache_dir is None:
            return None
        return self.cache_mb * 1024 * 1024

    # -- snapshots -----------------------------------------------------
    def describe(self) -> dict:
        """JSON-encodable snapshot of every knob.

        Embedded in every saved :class:`~repro.experiments.result.
        RunResult` artifact so a result file records the exact runtime
        configuration that produced it; the constructor takes it back
        (``ReproConfig(**snapshot)``) and rebuilds an equal config.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


# -- the active config -------------------------------------------------

_ACTIVE: list[ReproConfig] = []


def active_config() -> ReproConfig:
    """The config every consumer reads.

    Returns the innermost config installed with :func:`use_config`
    when one is active; otherwise resolves a fresh snapshot from the
    environment, so flipping a ``REPRO_*`` variable (as the tests do)
    takes effect on the very next call.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    return ReproConfig.resolve()


@contextlib.contextmanager
def use_config(config: ReproConfig) -> Iterator[ReproConfig]:
    """Pin *config* as the active config for the enclosed block.

    While pinned, the environment is **not** consulted — the installed
    config wins over any ``REPRO_*`` variable (argument > env).  Nests:
    the innermost pin wins; the previous config is restored on exit.
    """
    _ACTIVE.append(config)
    try:
        yield config
    finally:
        _ACTIVE.pop()
