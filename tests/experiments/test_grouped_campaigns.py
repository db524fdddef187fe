"""Grouped campaign generation must be invisible in the traces.

:func:`~repro.experiments.campaign.get_or_generate_campaigns` packs
every cache miss of a request list into one lane-packed acquisition
pass per campaign shape, and :func:`~repro.experiments.parallel.
run_campaigns` groups its specs the same way before the serial loop or
the pool.  Each campaign's traces must equal its solo generation byte
for byte, whatever the mix of kinds, roles, enables and batches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReproConfig, use_config
from repro.errors import ExperimentError
from repro.experiments.campaign import (
    CAMPAIGN_PLANNERS,
    get_or_generate_campaigns,
    get_or_generate_traces,
)
from repro.experiments.parallel import campaign_spec, run_campaigns
from repro.io.cache import TraceCache
from repro.obs import use_metrics

TROJANS = ("trojan1", "trojan2", "trojan4", "a2")


def _solo(chip, scenario, kind, params) -> dict:
    """*kind*'s campaign generated alone, in its own pass."""
    return get_or_generate_traces(
        chip, scenario, kind, cache=False, **params
    )


def _assert_equal(got: dict, want: dict, label) -> None:
    assert list(got) == list(want), label
    for rcv, arr in want.items():
        assert got[rcv].shape == arr.shape, (label, rcv)
        assert np.array_equal(got[rcv], arr), (label, rcv)


@st.composite
def _requests(draw):
    """1-5 small ``(kind, params)`` requests.  Record lengths come from
    a short list, so several requests share a shape and a pass."""
    out = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(sorted(CAMPAIGN_PLANNERS)))
        batch = draw(st.sampled_from((1, 7, 64, 65)))
        params = dict(
            batch=batch,
            rng_role=f"prop/{i}/{draw(st.integers(0, 2))}",
            trojan_enables=tuple(
                draw(st.lists(st.sampled_from(TROJANS), unique=True,
                              max_size=2))
            ),
            receivers=draw(st.sampled_from((("sensor",),
                                            ("sensor", "probe")))),
        )
        if kind == "ed":
            params["n_traces"] = draw(st.integers(1, batch))
        else:
            params["n_cycles"] = draw(st.sampled_from((24, 36)))
            params["encrypting"] = draw(st.booleans())
        out.append((kind, params))
    return out


@settings(max_examples=10, deadline=None)
@given(requests=_requests())
def test_grouped_requests_equal_solo_collectors(chip, sim_scenario, requests):
    grouped = get_or_generate_campaigns(
        chip, sim_scenario, requests, cache=False
    )
    assert len(grouped) == len(requests)
    for i, ((kind, params), got) in enumerate(zip(requests, grouped)):
        want = _solo(chip, sim_scenario, kind, params)
        _assert_equal(got, want, (i, kind))


def _mixed_requests():
    return [
        ("ed", dict(n_traces=6, batch=4, receivers=("sensor",),
                    rng_role="mix/golden")),
        ("ed", dict(n_traces=6, batch=4, receivers=("sensor",),
                    trojan_enables=("trojan1",), rng_role="mix/t1")),
        ("spectral", dict(n_cycles=36, batch=2, rng_role="mix/spec")),
        ("raw", dict(n_cycles=36, batch=3, receivers=("sensor",),
                     encrypting=False, rng_role="mix/idle")),
        ("ed", dict(n_traces=6, batch=4, receivers=("sensor",),
                    trojan_enables=("trojan4",), rng_role="mix/t4")),
    ]


def test_cache_mix_acquires_and_writes_only_the_misses(
    chip, sim_scenario, tmp_path
):
    requests = _mixed_requests()
    solo = [
        _solo(chip, sim_scenario, kind, params) for kind, params in requests
    ]
    cache = TraceCache(tmp_path / "cache")
    for i in (1, 3):
        kind, params = requests[i]
        get_or_generate_traces(chip, sim_scenario, kind, cache=cache,
                               **params)
    puts = cache.stats.puts

    with use_metrics() as metrics:
        got = get_or_generate_campaigns(
            chip, sim_scenario, requests, cache=cache
        )
    counters = metrics.snapshot()["counters"]
    assert counters["traces.cache.hit"] == 2
    assert counters["traces.cache.miss"] == 3
    # The three misses: the two ED campaigns share one pass, the
    # spectral record takes its own.
    assert counters["acquire.passes"] == 2
    # ED windows of 6 traces at batch 4 take (2 + 2) * 12 cycles.
    assert counters["acquire.cycles"] == 48 * (4 + 4) + 36 * 2
    assert cache.stats.puts - puts == 3  # one receiver per miss
    for i, (want, have) in enumerate(zip(solo, got)):
        _assert_equal(have, want, i)
    assert not got[1]["sensor"].flags.writeable  # served from disk
    assert got[0]["sensor"].flags.writeable  # freshly generated


def test_ed_batch_above_the_window_count_shares_one_entry(
    chip, sim_scenario, tmp_path
):
    """An ``ed`` campaign runs ``min(batch, n_traces)`` lanes, so batch 64
    and batch 16 of 16 traces are one campaign and one cache entry."""
    cache = TraceCache(tmp_path / "cache")
    params = dict(n_traces=16, receivers=("sensor",), rng_role="cap")
    with use_metrics() as metrics:
        wide = get_or_generate_campaigns(
            chip, sim_scenario, [("ed", dict(params, batch=64))], cache=cache
        )
        capped = get_or_generate_campaigns(
            chip, sim_scenario, [("ed", dict(params, batch=16))], cache=cache
        )
    counters = metrics.snapshot()["counters"]
    assert counters["traces.cache.miss"] == 1
    assert counters["traces.cache.hit"] == 1
    assert counters["acquire.passes"] == 1
    _assert_equal(capped[0], wide[0], "batch 16 vs 64")


def test_packing_lowers_passes_not_cycles(chip, sim_scenario):
    requests = _mixed_requests()
    with use_metrics() as solo:
        for kind, params in requests:
            _solo(chip, sim_scenario, kind, params)
    with use_metrics() as grouped:
        get_or_generate_campaigns(chip, sim_scenario, requests, cache=False)
    s = solo.snapshot()["counters"]
    g = grouped.snapshot()["counters"]
    assert s["acquire.passes"] == len(requests)
    # ED windows, the spectral record (no noise) and the raw record
    # (other receivers) are three shapes.
    assert g["acquire.passes"] == 3
    assert g["acquire.cycles"] == s["acquire.cycles"]


def _specs(chip, sim_scenario, sil_scenario):
    return [
        campaign_spec(
            name, kind, chip, scenario, receivers=("sensor",), **params
        )
        for name, kind, scenario, params in (
            ("sim/golden", "ed", sim_scenario, dict(n_traces=6, batch=4)),
            ("sim/spec", "spectral", sim_scenario, dict(n_cycles=36)),
            ("sil/golden", "ed", sil_scenario, dict(n_traces=6, batch=4)),
            ("sim/t2", "ed", sim_scenario,
             dict(n_traces=6, batch=4, trojan_enables=("trojan2",))),
            ("sil/t4", "ed", sil_scenario,
             dict(n_traces=6, batch=4, trojan_enables=("trojan4",))),
        )
    ]


def test_pooled_groups_equal_serial_and_solo(
    chip, sim_scenario, sil_scenario
):
    specs = _specs(chip, sim_scenario, sil_scenario)
    with use_config(ReproConfig(host_cpus=2, workers=2)):
        with use_metrics() as serial_metrics:
            serial = run_campaigns(specs, workers=1)
        pooled = run_campaigns(specs, workers=2)
    assert list(serial) == list(pooled) == [spec.name for spec in specs]
    # Three groups: the sim ED pair, the sim spectral record, the sil
    # ED pair.
    assert serial_metrics.snapshot()["counters"]["acquire.passes"] == 3
    for spec in specs:
        want = _solo(chip, spec.scenario, spec.kind, dict(spec.params))
        _assert_equal(serial[spec.name], want, spec.name)
        _assert_equal(pooled[spec.name], want, spec.name)


def test_unknown_kind_in_a_request_list_fails_before_acquiring(
    chip, sim_scenario
):
    with use_metrics() as metrics:
        with pytest.raises(ExperimentError, match="unknown campaign kind"):
            get_or_generate_campaigns(
                chip,
                sim_scenario,
                [_mixed_requests()[0], ("nope", {})],
                cache=False,
            )
    assert "acquire.cycles" not in metrics.snapshot()["counters"]
