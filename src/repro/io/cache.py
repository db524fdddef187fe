"""Content-addressed artifact cache for the acquisition pipeline.

Every trace set this library generates is a pure function of a small
tuple of inputs: the chip build (seed, Trojan set, physical config),
the measurement scenario, the collector and its parameters, and the
pipeline code version.  :class:`PipelineKey` canonicalises that tuple
and hashes it; :class:`TraceCache` maps the hash to files on disk, so
any driver requesting the same (seed, scenario, trojan-set, receiver)
bundle — across processes, runs, or experiment suites — gets the bytes
it generated last time instead of re-running the chip build → gate
simulation → EM projection pipeline.

The cache is **off by default**.  Point ``REPRO_CACHE_DIR`` at a
directory to enable it process-wide; cap its size with
``REPRO_CACHE_MB`` (least-recently-used entries are evicted once the
budget is exceeded).  Bundles are stored in the store format (raw
``.npy`` + JSON sidecar), so cache hits are zero-copy memmapped reads.
Writes go through atomic same-directory renames, making a shared cache
safe under :func:`repro.experiments.parallel.run_campaigns` workers.

Bump :data:`CACHE_SALT` whenever a code change alters what any
collector produces for the same inputs — the salt is folded into every
key, so stale entries simply stop being addressable.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from repro.config import active_config
from repro.errors import ExperimentError, MeasurementError
from repro.io.store import (
    TraceBundle,
    _json_default,
    atomic_write_bytes,
    load_traces,
    save_traces,
)

#: Pipeline code-version salt.  Any change that alters collector output
#: for identical inputs must bump this, invalidating every old entry.
#: (2: acquisition fold moved to blocked float32 — traces shift ~1e-5.)
#: (3: keys gained the ``receivers`` field — the chip's installed
#: receiver set/array geometry — so single-coil and sensor-array
#: campaigns can never alias.)
#: (4: the activity fold runs per delay level and exactly, on integer
#: activity codes in float64 — traces shift by up to 2e-7 of peak.)
#: (5: clock amplitudes are exact sums over the enable nets of weights
#: rounded to a power-of-two grid, not a per-register einsum — traces
#: shift by up to 1e-11 of peak.)
#: (6: event synthesis adds each kernel tap directly instead of an FFT
#: convolution of a dense impulse train — traces shift by up to 7e-16
#: of peak.)
#: (7: the on-chip spiral and the external probe couple through the
#: batched Neumann kernel, the probe in one pass over its turns —
#: receiver traces shift by up to 3.3e-16 of peak.)
#: (8: the Neumann kernel's near-pair threshold is scaled by the whole
#: source cloud, not by each chunk, so couplings no longer depend on
#: the chunk size — they shift by up to 5.6e-15 of peak.)
#: (9: an ``ed`` campaign runs ``min(batch, n_traces)`` lanes, so a
#: request with fewer traces than lanes draws new stimulus and noise
#: streams under the same key.)
#: (10: the external probe's turns are integrated in closed form along
#: each side, with a two-point rule along the sources — probe traces
#: shift by up to 5e-8 of peak; ``ed`` keys hash ``min(batch,
#: n_traces)``, the lanes the campaign runs.)
CACHE_SALT = "repro-pipeline-10"


def _canon(obj):
    """Reduce *obj* to deterministic JSON-encodable primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": _canon(asdict(obj)),
        }
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_canon(v) for v in items]
    raise ExperimentError(
        f"cannot canonicalise {type(obj).__name__!r} into a cache key"
    )


def canonical_json(obj) -> str:
    """Deterministic compact JSON encoding of *obj* (sorted keys)."""
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class PipelineKey:
    """Everything that determines one pipeline artifact, canonicalised.

    The string fields hold :func:`canonical_json` encodings so the key
    itself stays hashable and order-insensitive; :meth:`digest` is the
    content address.
    """

    kind: str
    chip_seed: int
    chip_trojans: tuple[str, ...]
    chip_config: str
    scenario: str
    params: str
    #: The chip's installed receiver channels (names + group layout).
    #: The physical knobs behind them already live in ``chip_config``,
    #: but binding the realised channel set directly guarantees a
    #: sensor-array campaign and a single-coil campaign can never share
    #: a digest even if a future config change made their configs alias.
    receivers: str = "{}"
    salt: str = CACHE_SALT

    @classmethod
    def for_campaign(cls, chip, scenario, kind: str, params: dict) -> "PipelineKey":
        """Key for one collector call on *chip* under *scenario*."""
        return cls(
            kind=kind,
            chip_seed=chip.seed,
            chip_trojans=tuple(chip.trojans),
            chip_config=canonical_json(chip.config),
            scenario=canonical_json(scenario),
            params=canonical_json(params),
            receivers=canonical_json(
                {g: list(names) for g, names in chip.receiver_groups.items()}
            ),
        )

    def derived(self, label: str, **params) -> "PipelineKey":
        """Key of an artifact computed *from* this key's artifact.

        Used for post-processing products — fitted detector state,
        averaged spectra — whose identity is (input artifact, analysis
        parameters).
        """
        return PipelineKey(
            kind=f"{self.kind}/{label}",
            chip_seed=self.chip_seed,
            chip_trojans=self.chip_trojans,
            chip_config=self.chip_config,
            scenario=self.scenario,
            params=canonical_json({"base": self.params, **params}),
            receivers=self.receivers,
            salt=self.salt,
        )

    def digest(self) -> str:
        """SHA-256 content address of this key."""
        import hashlib

        return hashlib.sha256(
            canonical_json(asdict(self)).encode("utf-8")
        ).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/evict counters of one :class:`TraceCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def format(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.puts} put(s), {self.evictions} eviction(s)"
        )


#: File endings of one cache entry: a derived artifact, or a trace
#: payload and its sidecar.
_ENTRY_EXTS = (".artifact.json", ".json", ".npy")


class TraceCache:
    """Disk-backed, content-addressed, LRU-bounded artifact store.

    Entries live under ``root/<digest[:2]>/`` as v2 trace bundles
    (``<digest>[-receiver].npy`` + sidecar) or JSON artifacts
    (``<digest>.artifact.json``).  Reads bump the file mtime, which is
    the LRU clock; writes are atomic renames, so concurrent readers
    and writers (parallel campaign workers) never see torn entries.
    """

    def __init__(
        self, root: str | Path, max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes <= 0:
            raise ExperimentError(
                f"cache size budget must be positive, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    @classmethod
    def from_env(cls) -> "TraceCache | None":
        """Cache selected by the active config, or None when disabled.

        Reads :func:`repro.config.active_config` (``REPRO_CACHE_DIR`` /
        ``REPRO_CACHE_MB``, or a config pinned with ``use_config``).
        """
        cfg = active_config()
        if cfg.cache_dir is None:
            return None
        return cls(cfg.cache_dir, max_bytes=cfg.cache_bytes())

    # -- paths ---------------------------------------------------------
    def _path(self, key: PipelineKey | str, ext: str, suffix: str = "") -> Path:
        """Entry path; *ext* is appended, not substituted, so a dotted
        receiver name (an array coil) keeps its own file."""
        digest = key.digest() if isinstance(key, PipelineKey) else str(key)
        name = f"{digest}-{suffix}" if suffix else digest
        return self.root / digest[:2] / f"{name}{ext}"

    @staticmethod
    def _touch(*paths: Path) -> None:
        now = time.time()
        for p in paths:
            with contextlib.suppress(OSError):
                os.utime(p, (now, now))

    # -- trace bundles -------------------------------------------------
    def get_bundle(
        self, key: PipelineKey | str, receiver: str = "", mmap: bool = True
    ) -> TraceBundle | None:
        """Stored bundle for *key* (and *receiver*), or None on a miss.

        Hits return read-only memmapped traces by default — near-free
        regardless of campaign size.  A corrupt or torn entry counts
        as a miss and is dropped.
        """
        payload = self._path(key, ".npy", receiver)
        if not payload.exists():
            self.stats.misses += 1
            return None
        try:
            bundle = load_traces(payload, mmap=mmap)
        except (MeasurementError, OSError, ValueError):
            self._remove_entry(payload)
            self.stats.misses += 1
            return None
        self._touch(payload, payload.with_suffix(".json"))
        self.stats.hits += 1
        return bundle

    def put_bundle(
        self, key: PipelineKey | str, bundle: TraceBundle, receiver: str = ""
    ) -> Path:
        """Store *bundle* under *key*, evicting LRU entries if needed."""
        payload = self._path(key, ".npy", receiver)
        payload.parent.mkdir(parents=True, exist_ok=True)
        path = save_traces(bundle, payload)
        self.stats.puts += 1
        self._evict()
        return path

    # -- derived JSON artifacts ----------------------------------------
    def get_json(self, key: PipelineKey | str):
        """Stored derived artifact for *key*, or None on a miss."""
        path = self._path(key, ".artifact.json")
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            artifact = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._remove_entry(path)
            self.stats.misses += 1
            return None
        self._touch(path)
        self.stats.hits += 1
        return artifact["value"]

    def put_json(self, key: PipelineKey | str, value) -> Path:
        """Store a JSON-encodable derived artifact (numpy types ok)."""
        path = self._path(key, ".artifact.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            path,
            json.dumps({"value": value}, default=_json_default).encode("utf-8"),
        )
        self.stats.puts += 1
        self._evict()
        return path

    # -- size management ----------------------------------------------
    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(st.st_size for _p, st in self._files())

    def _files(self) -> list[tuple[Path, os.stat_result]]:
        out = []
        for p in self.root.rglob("*"):
            if not p.is_file() or p.name.endswith(".tmp"):
                continue
            with contextlib.suppress(OSError):
                out.append((p, p.stat()))
        return out

    @staticmethod
    def _entry_stem(path: Path) -> str:
        """Group key: payload + sidecar of one entry share a stem."""
        name = path.name
        for ext in _ENTRY_EXTS:
            if name.endswith(ext):
                return name[: -len(ext)]
        return name

    def _remove_entry(self, path: Path) -> None:
        """Drop every file of the entry *path* belongs to."""
        stem = self._entry_stem(path)
        for ext in _ENTRY_EXTS:
            with contextlib.suppress(OSError):
                (path.parent / (stem + ext)).unlink()

    def _evict(self) -> None:
        """Remove least-recently-used entries until under budget."""
        if self.max_bytes is None:
            return
        files = self._files()
        total = sum(st.st_size for _p, st in files)
        if total <= self.max_bytes:
            return
        groups: dict[tuple[Path, str], dict] = {}
        for p, st in files:
            g = groups.setdefault(
                (p.parent, self._entry_stem(p)), {"size": 0, "mtime": 0.0, "path": p}
            )
            g["size"] += st.st_size
            g["mtime"] = max(g["mtime"], st.st_mtime)
        for _key, g in sorted(groups.items(), key=lambda kv: kv[1]["mtime"]):
            if total <= self.max_bytes:
                break
            self._remove_entry(g["path"])
            total -= g["size"]
            self.stats.evictions += 1


#: Per-process caches keyed by (root, budget) so repeated
#: :func:`configured_cache` calls accumulate stats on one object.
_ACTIVE_CACHES: dict[tuple[str, int | None], TraceCache] = {}


def configured_cache() -> TraceCache | None:
    """The environment-configured cache for this process, or None.

    Re-reads the environment on every call (tests flip it), but hands
    back the same :class:`TraceCache` instance per configuration so
    hit/miss statistics aggregate across an experiment suite.
    """
    cache = TraceCache.from_env()
    if cache is None:
        return None
    key = (str(cache.root), cache.max_bytes)
    return _ACTIVE_CACHES.setdefault(key, cache)
