"""Content-addressed pipeline cache: keys, stats, eviction, equivalence.

The load-bearing property is the last one — traces served from the
cache must be bit-identical to freshly generated ones, through both the
serial entry point and the parallel campaign runner.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CACHE_DIR_ENV, CACHE_MB_ENV
from repro.experiments.campaign import (
    campaign_pipeline_key,
    collect_ed_traces,
    get_or_fit_detector,
    get_or_generate_traces,
)
from repro.experiments.parallel import campaign_spec, run_campaigns
from repro.io.cache import (
    PipelineKey,
    TraceCache,
    canonical_json,
    configured_cache,
)
from repro.io.store import TraceBundle

ED_PARAMS = dict(n_traces=8, batch=4, receivers=("sensor",), rng_role="ct/ed")


def _bundle(rng, n=4):
    return TraceBundle(
        traces=rng.normal(size=(n, 32)),
        receiver="sensor",
        fs=2.4e9,
        chip_seed=1,
        scenario="simulation",
    )


# -- keys ----------------------------------------------------------------


def test_pipeline_key_is_deterministic(chip, sim_scenario):
    k1 = campaign_pipeline_key(chip, sim_scenario, "ed", dict(ED_PARAMS))
    k2 = campaign_pipeline_key(chip, sim_scenario, "ed", dict(ED_PARAMS))
    assert k1 == k2
    assert k1.digest() == k2.digest()


def test_pipeline_key_binds_defaults(chip, sim_scenario):
    """Spelling a default out loud addresses the same entry."""
    implicit = campaign_pipeline_key(
        chip, sim_scenario, "ed", dict(n_traces=8)
    )
    explicit = campaign_pipeline_key(
        chip, sim_scenario, "ed", dict(n_traces=8, batch=64, decimate=12)
    )
    assert implicit.digest() == explicit.digest()


def test_pipeline_key_separates_campaigns(chip, sim_scenario, sil_scenario):
    base = campaign_pipeline_key(chip, sim_scenario, "ed", dict(ED_PARAMS))
    other_scenario = campaign_pipeline_key(
        chip, sil_scenario, "ed", dict(ED_PARAMS)
    )
    other_params = campaign_pipeline_key(
        chip, sim_scenario, "ed", dict(ED_PARAMS, n_traces=9)
    )
    derived = base.derived("detector", n_components=3)
    digests = {
        base.digest(),
        other_scenario.digest(),
        other_params.digest(),
        derived.digest(),
    }
    assert len(digests) == 4


def test_canonical_json_sorts_and_normalises():
    a = canonical_json({"b": (1, 2), "a": np.int64(3)})
    b = canonical_json({"a": 3, "b": [1, 2]})
    assert a == b


#: JSON-like key material: nested dicts and lists of None, bools,
#: int64-range integers, finite floats and short strings.
_KEY_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)


def _respell(obj, rnd: random.Random):
    """*obj* with the same values spelled differently, node by node at
    random: dict keys in another insertion order, lists as tuples, ints
    as ``np.int64`` and floats as ``np.float64`` (bools stay bools)."""
    if isinstance(obj, dict):
        items = list(obj.items())
        rnd.shuffle(items)
        return {k: _respell(v, rnd) for k, v in items}
    if isinstance(obj, list):
        items = [_respell(v, rnd) for v in obj]
        return tuple(items) if rnd.random() < 0.5 else items
    if isinstance(obj, bool) or rnd.random() < 0.5:
        return obj
    if isinstance(obj, int):
        return np.int64(obj)
    if isinstance(obj, float):
        return np.float64(obj)
    return obj


def _key(params, scenario) -> PipelineKey:
    return PipelineKey(
        kind="ed",
        chip_seed=1,
        chip_trojans=("trojan1",),
        chip_config=canonical_json({"die_um": 2000}),
        scenario=canonical_json(scenario),
        params=canonical_json(params),
    )


@settings(max_examples=150, deadline=None)
@given(
    params=st.dictionaries(st.text(max_size=4), _KEY_VALUES, max_size=5),
    scenario=_KEY_VALUES,
    rnd=st.randoms(use_true_random=False),
)
def test_key_is_invariant_under_respelling(params, scenario, rnd):
    """Key order, tuple-or-list and Python-or-numpy scalar spellings of
    the same values give one ``canonical_json`` and one key digest,
    also through :meth:`PipelineKey.derived`."""
    other_params = _respell(params, rnd)
    other_scenario = _respell(scenario, rnd)
    assert canonical_json(other_params) == canonical_json(params)
    key, other = _key(params, scenario), _key(other_params, other_scenario)
    assert other == key
    assert other.digest() == key.digest()
    assert (
        other.derived("detector", **other_params).digest()
        == key.derived("detector", **params).digest()
    )


def test_key_separates_int_from_float():
    """An int and an equal float are different key material: they are
    not interchangeable everywhere (``np.arange(8)`` vs ``np.arange(8.0)``),
    so the key keeps them apart and a respelling never aliases them."""
    assert canonical_json({"n": 8}) != canonical_json({"n": 8.0})


def test_pipeline_key_binds_receiver_topology(chip, sim_scenario):
    """An array chip and a plain chip must never share cache entries.

    The netlist, placement and scenario of the two chips are identical
    — only the installed receiver set differs — so the receiver-group
    topology has to be part of the key (the regression that motivated
    the ``receivers`` field and the salt bump).
    """
    from repro.chip.chip import Chip
    from repro.chip.config import ChipConfig

    array_chip = Chip.build(
        config=ChipConfig(sensor_array_rows=2, sensor_array_cols=2),
        seed=chip.seed,
    )
    plain = campaign_pipeline_key(chip, sim_scenario, "ed", dict(ED_PARAMS))
    arrayed = campaign_pipeline_key(
        array_chip, sim_scenario, "ed", dict(ED_PARAMS)
    )
    assert plain.receivers != arrayed.receivers
    assert plain.digest() != arrayed.digest()
    # The topology threads through derived artifact keys too.
    assert (
        plain.derived("detector").digest()
        != arrayed.derived("detector").digest()
    )
    assert arrayed.derived("detector").receivers == arrayed.receivers


# -- store behaviour -----------------------------------------------------


def test_cache_miss_then_hit_updates_stats(tmp_path, rng):
    cache = TraceCache(tmp_path)
    key = "0" * 64
    assert cache.get_bundle(key) is None
    bundle = _bundle(rng)
    cache.put_bundle(key, bundle)
    hit = cache.get_bundle(key)
    assert hit is not None
    assert np.array_equal(np.asarray(hit.traces), bundle.traces)
    assert not hit.traces.flags.writeable
    assert cache.stats.as_dict() == {
        "hits": 1, "misses": 1, "puts": 1, "evictions": 0,
    }
    assert "1 hit(s)" in cache.stats.format()


def test_corrupt_entry_counts_as_miss(tmp_path, rng):
    cache = TraceCache(tmp_path)
    key = "1" * 64
    path = cache.put_bundle(key, _bundle(rng))
    path.write_bytes(b"garbage")
    assert cache.get_bundle(key) is None
    assert not path.exists()  # dropped, not left to fail forever


def test_json_artifact_roundtrip(tmp_path):
    cache = TraceCache(tmp_path)
    key = "2" * 64
    assert cache.get_json(key) is None
    cache.put_json(key, {"threshold": np.float64(0.25), "taps": np.arange(3)})
    value = cache.get_json(key)
    assert value["threshold"] == pytest.approx(0.25)
    assert value["taps"] == [0, 1, 2]


def test_dotted_receiver_names_keep_their_own_entries(tmp_path, rng):
    # Array coils are named like ``array.r0c1``; each must round-trip
    # its own traces, not the last-written coil's.
    cache = TraceCache(tmp_path)
    key = "d" * 64
    coils = {f"array.r0c{i}": _bundle(rng) for i in range(3)}
    for name, bundle in coils.items():
        cache.put_bundle(key, bundle, receiver=name)
    for name, bundle in coils.items():
        got = cache.get_bundle(key, receiver=name)
        assert np.array_equal(got.traces, bundle.traces), name


def test_lru_eviction_under_budget(tmp_path, rng):
    import os
    import time

    cache = TraceCache(tmp_path)  # unbounded while populating
    keys = [str(i) * 64 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put_bundle(key, _bundle(rng, n=32))  # ~8 KiB payload each
        # Distinct mtimes so the LRU ordering is unambiguous.
        payload = cache._path(key, ".npy")
        stamp = time.time() - 100 + i
        for p in (payload, payload.with_suffix(".json")):
            os.utime(p, (stamp, stamp))
    cache.max_bytes = 2 * cache.size_bytes() // 4  # room for ~2 entries
    cache._evict()
    assert cache.size_bytes() <= cache.max_bytes
    assert cache.stats.evictions >= 1
    # The newest entry survives, the oldest went first.
    assert cache.get_bundle(keys[-1]) is not None
    assert cache.get_bundle(keys[0]) is None


def test_rejects_nonpositive_budget(tmp_path):
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        TraceCache(tmp_path, max_bytes=0)


def test_configured_cache_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert configured_cache() is None
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setenv(CACHE_MB_ENV, "1")
    cache = configured_cache()
    assert cache is not None
    assert cache.max_bytes == 1024 * 1024
    # Same configuration → same instance (stats aggregate).
    assert configured_cache() is cache


# -- pipeline equivalence ------------------------------------------------


def test_cached_traces_bit_identical_serial(chip, sim_scenario, tmp_path):
    direct = collect_ed_traces(chip, sim_scenario, **ED_PARAMS)
    cache = TraceCache(tmp_path)
    cold = get_or_generate_traces(
        chip, sim_scenario, "ed", cache=cache, **ED_PARAMS
    )
    warm = get_or_generate_traces(
        chip, sim_scenario, "ed", cache=cache, **ED_PARAMS
    )
    assert cache.stats.puts == 1
    assert cache.stats.hits == 1
    assert np.array_equal(direct["sensor"], cold["sensor"])
    assert np.array_equal(direct["sensor"], np.asarray(warm["sensor"]))
    assert not warm["sensor"].flags.writeable


def test_cache_false_disables(chip, sim_scenario, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    out = get_or_generate_traces(
        chip, sim_scenario, "ed", cache=False, **ED_PARAMS
    )
    assert list(tmp_path.iterdir()) == []  # nothing written
    assert np.array_equal(
        out["sensor"], collect_ed_traces(chip, sim_scenario, **ED_PARAMS)["sensor"]
    )


def test_cached_traces_bit_identical_parallel(
    chip, sim_scenario, tmp_path, monkeypatch
):
    specs = [
        campaign_spec(
            "golden", "ed", chip, sim_scenario,
            n_traces=8, batch=4, receivers=("sensor",), rng_role="ct/golden",
        ),
        campaign_spec(
            "trojan1", "ed", chip, sim_scenario,
            n_traces=8, batch=4, receivers=("sensor",),
            trojan_enables=("trojan1",), rng_role="ct/trojan1",
        ),
    ]
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    uncached = run_campaigns(specs, workers=1)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    cold = run_campaigns(specs, workers=2)
    warm = run_campaigns(specs, workers=2)
    for name in ("golden", "trojan1"):
        assert np.array_equal(
            uncached[name]["sensor"], np.asarray(cold[name]["sensor"])
        ), name
        assert np.array_equal(
            uncached[name]["sensor"], np.asarray(warm[name]["sensor"])
        ), name
    assert any(tmp_path.rglob("*.npy"))


def test_detector_state_served_from_cache(chip, sim_scenario, tmp_path, rng):
    golden = collect_ed_traces(chip, sim_scenario, **ED_PARAMS)["sensor"]
    cache = TraceCache(tmp_path)
    fresh = get_or_fit_detector(
        chip, sim_scenario, "ed", dict(ED_PARAMS), golden, cache=cache
    )
    cached = get_or_fit_detector(
        chip, sim_scenario, "ed", dict(ED_PARAMS), golden, cache=cache
    )
    assert cache.stats.hits == 1
    assert cached.threshold == fresh.threshold
    assert cached.separation_floor == fresh.separation_floor
    assert np.array_equal(cached._fingerprint, fresh._fingerprint)
    assert np.array_equal(cached.golden_distances, fresh.golden_distances)
    probe = rng.normal(size=(4, golden.shape[1]))
    assert np.array_equal(cached.distances(probe), fresh.distances(probe))


def test_fig6_spectra_served_from_cache(
    chip, sim_scenario, tmp_path, monkeypatch
):
    from repro.experiments.fig6 import run_fig6_spectra

    kwargs = dict(n_cycles=64, trojans=("trojan1",), workers=1)
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    uncached = run_fig6_spectra(chip, sim_scenario, **kwargs)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    cold = run_fig6_spectra(chip, sim_scenario, **kwargs)
    cache = configured_cache()
    puts_after_cold = cache.stats.puts
    warm = run_fig6_spectra(chip, sim_scenario, **kwargs)
    assert cache.stats.puts == puts_after_cold  # nothing regenerated
    for result in (cold, warm):
        panel = result.panels["trojan1"]
        ref = uncached.panels["trojan1"]
        assert np.array_equal(panel.golden.amplitude, ref.golden.amplitude)
        assert np.array_equal(panel.suspect.amplitude, ref.suspect.amplitude)
        assert panel.low_freq_energy_ratio == ref.low_freq_energy_ratio
        assert panel.total_energy_ratio == ref.total_energy_ratio


def test_table1_rows_served_from_cache(chip, tmp_path, monkeypatch):
    from repro.experiments.table1 import run_table1

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    cold = run_table1(chip)
    assert cold.stats is not None
    warm = run_table1(chip)
    assert warm.stats is None  # netlist walk skipped
    assert warm.rows == cold.rows
    assert warm.format() == cold.format()
