"""Trace-campaign persistence.

A :class:`TraceBundle` couples the trace matrix with the metadata
needed to interpret it later (receiver, sample rate, chip seed,
scenario name, Trojan enables, free-form extras).  Two on-disk formats
round-trip:

* **v2 (default)** — a raw ``.npy`` payload next to a ``.json``
  sidecar manifest.  Because the payload is uncompressed NumPy format,
  ``load_traces(..., mmap=True)`` hands back a *read-only memmapped*
  view with zero decompression or copying; the SHA-256 digest recorded
  in the manifest is checked only on request (``verify=True`` or
  :meth:`TraceBundle.verify`), so hot-path loads never stream the
  whole payload through a hash.
* **v1 (legacy)** — a single compressed ``.npz`` archive with an
  embedded manifest.  Still written when the target path ends in
  ``.npz`` and always loadable; its digest is checked eagerly on load
  (the bytes were just decompressed anyway).

Both :func:`save_traces` and :func:`load_traces` normalise missing
suffixes the same way, and :func:`save_traces` returns the path it
actually wrote — historically ``np.savez_compressed`` appended ``.npz``
silently, so the caller's path and the on-disk path disagreed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import MeasurementError

#: Current default on-disk format version.
STORE_FORMAT_VERSION = 2


@dataclass
class TraceBundle:
    """A stored trace campaign."""

    traces: np.ndarray
    receiver: str
    fs: float
    chip_seed: int
    scenario: str
    trojan_enables: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)
    #: Digest recorded in the manifest this bundle was loaded from
    #: (``None`` for bundles built in memory).  v2 loads are lazy:
    #: call :meth:`verify` to check the payload against it.
    stored_digest: str | None = None

    @property
    def n_traces(self) -> int:
        return self.traces.shape[0]

    def digest(self) -> str:
        """SHA-256 of the trace bytes."""
        return hashlib.sha256(
            np.ascontiguousarray(self.traces).tobytes()
        ).hexdigest()

    def verify(self) -> "TraceBundle":
        """Check the payload against the stored manifest digest.

        Raises
        ------
        MeasurementError
            If the digests mismatch (corrupt payload).  Bundles built
            in memory (no stored digest) pass trivially.
        """
        if self.stored_digest is not None and self.digest() != self.stored_digest:
            raise MeasurementError("trace digest mismatch (corrupt payload)")
        return self


def _json_default(obj):
    """JSON encoder hook for numpy scalars and arrays."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj)!r}")


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* via a same-directory temp + rename.

    The rename is atomic on POSIX, so concurrent writers (parallel
    campaign workers sharing a cache directory) and crash-interrupted
    ones can only ever leave complete files behind, never partially
    written ones.  This is the store-wide write convention: the trace
    cache, the v2 payload/sidecar writer and the fleet event journal
    all route through it.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:  # pragma: no cover - best-effort cleanup
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _manifest_for(bundle: TraceBundle, version: int) -> dict:
    return {
        "receiver": bundle.receiver,
        "fs": bundle.fs,
        "chip_seed": bundle.chip_seed,
        "scenario": bundle.scenario,
        "trojan_enables": list(bundle.trojan_enables),
        "extras": bundle.extras,
        "sha256": bundle.digest(),
        "format_version": version,
        "shape": list(bundle.traces.shape),
        "dtype": str(bundle.traces.dtype),
    }


def _sidecar_for(payload: Path) -> Path:
    return payload.with_suffix(".json")


def resolve_store_path(path: str | Path, fmt: str | None = None) -> Path:
    """Normalise *path* to the payload file a save would produce.

    ``.npz`` / ``.npy`` suffixes are kept; any other (or missing)
    suffix gains the extension of the requested format (default v2,
    ``.npy``).  Shared by :func:`save_traces` and :func:`load_traces`
    so the two always agree on the on-disk name.
    """
    path = Path(path)
    if fmt not in (None, "v1", "v2"):
        raise MeasurementError(f"unknown store format {fmt!r}")
    if path.suffix == ".npz" and fmt in (None, "v1"):
        return path
    if path.suffix == ".npy" and fmt in (None, "v2"):
        return path
    ext = ".npz" if fmt == "v1" else ".npy"
    return Path(str(path) + ext)


def save_traces(
    bundle: TraceBundle, path: str | Path, fmt: str | None = None
) -> Path:
    """Write a bundle and return the path actually written.

    *fmt* selects the on-disk format: ``"v2"`` (raw ``.npy`` payload +
    ``.json`` sidecar manifest, the default), ``"v1"`` (compressed
    ``.npz``), or ``None`` to infer it from the path suffix (``.npz``
    → v1, anything else → v2).  Writes are atomic (temp + rename), so
    a concurrent reader or a crash can never leave a torn file behind.
    """
    if bundle.traces.ndim != 2:
        raise MeasurementError(
            f"trace matrix must be 2-D, got shape {bundle.traces.shape}"
        )
    target = resolve_store_path(path, fmt)
    if target.suffix == ".npz":
        manifest = _manifest_for(bundle, version=1)
        np.savez_compressed(
            target,
            traces=bundle.traces,
            manifest=np.frombuffer(
                json.dumps(manifest, default=_json_default).encode("utf-8"),
                dtype=np.uint8,
            ),
        )
        return target
    manifest = _manifest_for(bundle, version=STORE_FORMAT_VERSION)
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(bundle.traces), allow_pickle=False)
    atomic_write_bytes(target, buf.getvalue())
    # Sidecar last: its presence marks the payload as complete.
    atomic_write_bytes(
        _sidecar_for(target),
        (json.dumps(manifest, indent=2, sort_keys=True, default=_json_default)
         + "\n").encode("utf-8"),
    )
    return target


def _bundle_from(traces: np.ndarray, manifest: dict) -> TraceBundle:
    return TraceBundle(
        traces=traces,
        receiver=manifest["receiver"],
        fs=float(manifest["fs"]),
        chip_seed=int(manifest["chip_seed"]),
        scenario=manifest["scenario"],
        trojan_enables=tuple(manifest["trojan_enables"]),
        extras=manifest.get("extras", {}),
        stored_digest=manifest.get("sha256"),
    )


def _load_v1(path: Path) -> TraceBundle:
    with np.load(path) as data:
        if "traces" not in data or "manifest" not in data:
            raise MeasurementError(f"{path} is not a repro trace bundle")
        traces = data["traces"]
        manifest = json.loads(bytes(data["manifest"].tobytes()).decode("utf-8"))
    return _bundle_from(traces, manifest)


def _load_v2(path: Path, mmap: bool) -> TraceBundle:
    sidecar = _sidecar_for(path)
    if not sidecar.exists():
        raise MeasurementError(
            f"{path} has no manifest sidecar {sidecar.name}; not a complete "
            "repro trace bundle"
        )
    manifest = json.loads(sidecar.read_text(encoding="utf-8"))
    if "sha256" not in manifest or "receiver" not in manifest:
        raise MeasurementError(f"{sidecar} is not a trace-bundle manifest")
    traces = np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    if mmap:
        traces.flags.writeable = False
    return _bundle_from(traces, manifest)


def load_traces(
    path: str | Path,
    mmap: bool = False,
    verify: bool | None = None,
) -> TraceBundle:
    """Load a bundle saved by :func:`save_traces` (either format).

    Parameters
    ----------
    path:
        Payload path; a missing suffix resolves exactly like
        :func:`save_traces` (``.npy`` preferred, ``.npz`` fallback).
    mmap:
        Return the v2 payload as a read-only memory map — zero copy,
        zero decompression.  v1 archives must decompress, so they load
        in memory regardless.
    verify:
        Check the stored digest eagerly.  Defaults to the per-format
        historical behaviour: ``True`` for v1 (bytes are in memory
        anyway), ``False`` for v2 (call :meth:`TraceBundle.verify`
        when wanted — hashing would force a full read of the mapped
        payload).

    Raises
    ------
    MeasurementError
        If no bundle exists at the path, the file is not a trace
        bundle, or (when verified) the digest mismatches.
    """
    raw = Path(path)
    candidates = [raw] if raw.exists() else [
        p for p in (Path(str(raw) + ".npy"), Path(str(raw) + ".npz"))
        if p.exists()
    ]
    if not candidates:
        raise MeasurementError(f"no trace bundle at {path}")
    target = candidates[0]
    is_v1 = target.suffix == ".npz"
    bundle = _load_v1(target) if is_v1 else _load_v2(target, mmap=mmap)
    if verify is None:
        verify = is_v1
    if verify and bundle.digest() != bundle.stored_digest:
        raise MeasurementError(f"{target}: trace digest mismatch (corrupt file)")
    return bundle


def save_json_report(report: dict, path: str | Path) -> None:
    """Write an experiment-result dictionary as pretty JSON."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_default)
        + "\n",
        encoding="utf-8",
    )


def load_json_report(path: str | Path) -> dict:
    """Load a JSON experiment report."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
