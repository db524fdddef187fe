"""Trace-campaign persistence.

A :class:`TraceBundle` couples the trace matrix with the metadata
needed to interpret it later (receiver, sample rate, chip seed,
scenario name, Trojan enables, free-form extras).  The on-disk format
(version 2) is a raw ``.npy`` payload next to a ``.json`` sidecar
manifest.  Because the payload is uncompressed NumPy format,
``load_traces(..., mmap=True)`` hands back a *read-only memmapped*
view with zero decompression or copying; the SHA-256 digest recorded
in the manifest is checked only on request (``verify=True`` or
:meth:`TraceBundle.verify`), so hot-path loads never stream the whole
payload through a hash.

Both :func:`save_traces` and :func:`load_traces` normalise the path
through :func:`resolve_store_path`, and :func:`save_traces` returns
the path it actually wrote.
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

#: On-disk format version recorded in every manifest.
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
    #: (``None`` for bundles built in memory).  Loads are lazy: call
    #: :meth:`verify` to check the payload against it.
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
    cache, the payload/sidecar writer and the fleet event journal
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


def _manifest_for(bundle: TraceBundle) -> dict:
    return {
        "receiver": bundle.receiver,
        "fs": bundle.fs,
        "chip_seed": bundle.chip_seed,
        "scenario": bundle.scenario,
        "trojan_enables": list(bundle.trojan_enables),
        "extras": bundle.extras,
        "sha256": bundle.digest(),
        "format_version": STORE_FORMAT_VERSION,
        "shape": list(bundle.traces.shape),
        "dtype": str(bundle.traces.dtype),
    }


def _sidecar_for(payload: Path) -> Path:
    return payload.with_suffix(".json")


def resolve_store_path(path: str | Path) -> Path:
    """Normalise *path* to the payload file a save would produce.

    A ``.npy`` suffix is kept; any other (or missing) suffix gains
    ``.npy``.  Shared by :func:`save_traces` and :func:`load_traces` so
    the two always agree on the on-disk name.
    """
    path = Path(path)
    return path if path.suffix == ".npy" else Path(str(path) + ".npy")


def save_traces(bundle: TraceBundle, path: str | Path) -> Path:
    """Write a bundle and return the path actually written.

    The payload is a raw ``.npy`` file with a ``.json`` sidecar
    manifest.  Writes are atomic (temp + rename), so a concurrent
    reader or a crash can never leave a torn file behind.
    """
    if bundle.traces.ndim != 2:
        raise MeasurementError(
            f"trace matrix must be 2-D, got shape {bundle.traces.shape}"
        )
    target = resolve_store_path(path)
    manifest = _manifest_for(bundle)
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


def load_traces(
    path: str | Path,
    mmap: bool = False,
    verify: bool = False,
) -> TraceBundle:
    """Load a bundle saved by :func:`save_traces`.

    Parameters
    ----------
    path:
        Payload path; resolved exactly like :func:`save_traces`.
    mmap:
        Return the payload as a read-only memory map — zero copy,
        zero decompression.
    verify:
        Check the stored digest eagerly.  Off by default (call
        :meth:`TraceBundle.verify` when wanted): hashing would force a
        full read of a mapped payload.

    Raises
    ------
    MeasurementError
        If no bundle exists at the path, the file is not a trace
        bundle, or (when verified) the digest mismatches.
    """
    target = resolve_store_path(path)
    if not target.exists():
        raise MeasurementError(f"no trace bundle at {path}")
    sidecar = _sidecar_for(target)
    if not sidecar.exists():
        raise MeasurementError(
            f"{target} has no manifest sidecar {sidecar.name}; not a complete "
            "repro trace bundle"
        )
    manifest = json.loads(sidecar.read_text(encoding="utf-8"))
    if "sha256" not in manifest or "receiver" not in manifest:
        raise MeasurementError(f"{sidecar} is not a trace-bundle manifest")
    traces = np.load(
        target, mmap_mode="r" if mmap else None, allow_pickle=False
    )
    if mmap:
        traces.flags.writeable = False
    bundle = _bundle_from(traces, manifest)
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
