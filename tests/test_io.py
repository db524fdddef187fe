"""Tests for trace-bundle persistence."""

import json

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.io import (
    TraceBundle,
    load_traces,
    resolve_store_path,
    save_json_report,
    save_traces,
)


def _bundle(rng):
    return TraceBundle(
        traces=rng.normal(size=(8, 64)),
        receiver="sensor",
        fs=2.4e9,
        chip_seed=1,
        scenario="simulation",
        trojan_enables=("trojan4",),
        extras={"note": "unit test"},
    )


def test_roundtrip(tmp_path, rng):
    bundle = _bundle(rng)
    path = tmp_path / "campaign.npy"
    save_traces(bundle, path)
    loaded = load_traces(path)
    assert np.array_equal(loaded.traces, bundle.traces)
    assert loaded.receiver == "sensor"
    assert loaded.fs == 2.4e9
    assert loaded.chip_seed == 1
    assert loaded.trojan_enables == ("trojan4",)
    assert loaded.extras == {"note": "unit test"}
    assert loaded.n_traces == 8


def test_digest_detects_corruption(tmp_path, rng):
    bundle = _bundle(rng)
    path = save_traces(bundle, tmp_path / "campaign.npy")
    # Re-save with tampered traces but the old manifest.
    traces = np.load(path)
    traces[0, 0] += 1.0
    np.save(path, traces)
    with pytest.raises(MeasurementError, match="digest"):
        load_traces(path, verify=True)


def test_not_a_bundle(tmp_path, rng):
    path = tmp_path / "other.npy"
    np.save(path, np.zeros(3))
    path.with_suffix(".json").write_text('{"foo": 1}')
    with pytest.raises(MeasurementError, match="not a trace-bundle"):
        load_traces(path)
    with pytest.raises(MeasurementError, match="no trace bundle"):
        load_traces(tmp_path / "missing")


def test_bad_trace_shape_rejected(tmp_path, rng):
    bundle = _bundle(rng)
    bundle.traces = bundle.traces.ravel()
    with pytest.raises(MeasurementError):
        save_traces(bundle, tmp_path / "x.npy")


def test_json_report_roundtrip(tmp_path):
    report = {
        "snr_db": np.float64(29.97),
        "count": np.int64(42),
        "values": np.arange(3),
        "name": "fig6",
    }
    path = tmp_path / "report.json"
    save_json_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["snr_db"] == pytest.approx(29.97)
    assert loaded["count"] == 42
    assert loaded["values"] == [0, 1, 2]


def test_json_report_rejects_exotic_types(tmp_path):
    with pytest.raises(TypeError):
        save_json_report({"x": object()}, tmp_path / "bad.json")


def test_v2_roundtrip(tmp_path, rng):
    bundle = _bundle(rng)
    path = save_traces(bundle, tmp_path / "campaign.npy")
    assert path == tmp_path / "campaign.npy"
    assert (tmp_path / "campaign.json").exists()
    loaded = load_traces(path)
    assert np.array_equal(loaded.traces, bundle.traces)
    assert loaded.receiver == "sensor"
    assert loaded.trojan_enables == ("trojan4",)
    assert loaded.extras == {"note": "unit test"}
    assert loaded.stored_digest == bundle.digest()


def test_save_returns_real_path_for_suffixless_target(tmp_path, rng):
    """Save and load agree on the on-disk name of a suffixless path."""
    bundle = _bundle(rng)
    requested = tmp_path / "campaign"
    written = save_traces(bundle, requested)
    assert written.exists()
    assert written == resolve_store_path(requested)
    # Loading via the *requested* path works too.
    assert np.array_equal(load_traces(requested).traces, bundle.traces)


def test_v2_mmap_is_readonly_and_identical(tmp_path, rng):
    bundle = _bundle(rng)
    path = save_traces(bundle, tmp_path / "campaign.npy")
    loaded = load_traces(path, mmap=True)
    assert isinstance(loaded.traces, np.memmap)
    assert not loaded.traces.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        loaded.traces[0, 0] = 0.0
    assert np.array_equal(np.asarray(loaded.traces), bundle.traces)


def test_v2_digest_checked_lazily(tmp_path, rng):
    bundle = _bundle(rng)
    path = save_traces(bundle, tmp_path / "campaign.npy")
    # Corrupt the payload but keep the sidecar manifest.
    tampered = np.load(path).copy()
    tampered[0, 0] += 1.0
    np.save(path, tampered)
    # Default v2 load is lazy: no eager digest streaming.
    loaded = load_traces(path)
    with pytest.raises(MeasurementError, match="digest"):
        loaded.verify()
    with pytest.raises(MeasurementError, match="digest"):
        load_traces(path, verify=True)


def test_v2_missing_sidecar_rejected(tmp_path, rng):
    bundle = _bundle(rng)
    path = save_traces(bundle, tmp_path / "campaign.npy")
    path.with_suffix(".json").unlink()
    with pytest.raises(MeasurementError, match="sidecar"):
        load_traces(path)


def test_v2_extras_with_numpy_values(tmp_path, rng):
    bundle = _bundle(rng)
    bundle.extras = {
        "snr_db": np.float64(30.5),
        "count": np.int64(7),
        "flag": np.bool_(True),
        "taps": np.arange(4),
    }
    loaded = load_traces(save_traces(bundle, tmp_path / "campaign.npy"))
    assert loaded.extras["snr_db"] == pytest.approx(30.5)
    assert loaded.extras["count"] == 7
    assert loaded.extras["flag"] is True
    assert loaded.extras["taps"] == [0, 1, 2, 3]


def test_resolve_store_path_rules():
    assert str(resolve_store_path("a")) == "a.npy"
    assert str(resolve_store_path("a.npy")) == "a.npy"
    assert str(resolve_store_path("a.npz")) == "a.npz.npy"
