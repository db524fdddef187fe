"""Persistence: trace campaigns and experiment results on disk.

Long campaigns are worth keeping — a silicon-scenario Fig. 6 run takes
minutes — so :mod:`repro.io.store` saves trace sets as bundles with a
JSON manifest (scenario, chip seed, Trojan enables) and reloads them
with integrity checks: a raw ``.npy`` payload plus a JSON sidecar,
which loads as a zero-copy read-only memmap.

:mod:`repro.io.cache` layers a content-addressed, LRU-bounded disk
cache on top (``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MB``), addressing
trace bundles and derived artifacts by a :class:`~repro.io.cache.
PipelineKey` hash of everything that determines them.
"""

from repro.io.cache import (
    CacheStats,
    PipelineKey,
    TraceCache,
    canonical_json,
    configured_cache,
)
from repro.io.store import (
    STORE_FORMAT_VERSION,
    TraceBundle,
    load_traces,
    resolve_store_path,
    save_traces,
    save_json_report,
)

__all__ = [
    "CacheStats",
    "PipelineKey",
    "STORE_FORMAT_VERSION",
    "TraceBundle",
    "TraceCache",
    "canonical_json",
    "configured_cache",
    "load_traces",
    "resolve_store_path",
    "save_traces",
    "save_json_report",
]
