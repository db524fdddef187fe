"""The parallel campaign runner must be invisible in the results.

``run_campaigns`` with a worker pool has to return bit-identical traces
to the serial loop — every random stream is derived from the spec's
``(chip seed, scenario seed, rng_role)``, never from process or
scheduling state.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

import repro.experiments.parallel as parallel
from repro.config import WORKERS_ENV_VAR, ReproConfig, use_config
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    campaign_spec,
    resolve_workers,
    run_campaigns,
)
from repro.obs import use_metrics


def _small_specs(chip, scenario):
    specs = [
        campaign_spec(
            "golden",
            "ed",
            chip,
            scenario,
            n_traces=8,
            batch=4,
            receivers=("sensor",),
            rng_role="ptest/golden",
        ),
        campaign_spec(
            "trojan1",
            "ed",
            chip,
            scenario,
            n_traces=8,
            batch=4,
            receivers=("sensor",),
            trojan_enables=("trojan1",),
            rng_role="ptest/trojan1",
        ),
        campaign_spec(
            "spectrum",
            "spectral",
            chip,
            scenario,
            n_cycles=64,
            batch=2,
            receivers=("sensor",),
            rng_role="ptest/spectrum",
        ),
    ]
    return specs


def test_parallel_matches_serial_bit_for_bit(chip, sim_scenario):
    specs = _small_specs(chip, sim_scenario)
    serial = run_campaigns(specs, workers=1)
    parallel = run_campaigns(specs, workers=2)
    assert list(serial) == ["golden", "trojan1", "spectrum"]
    assert list(parallel) == list(serial)
    for name in serial:
        s, p = serial[name]["sensor"], parallel[name]["sensor"]
        assert s.shape == p.shape, name
        assert np.array_equal(s, p), name


def test_rerun_is_deterministic(chip, sim_scenario):
    spec = _small_specs(chip, sim_scenario)[0]
    first = run_campaigns([spec], workers=1)["golden"]["sensor"]
    again = run_campaigns([spec], workers=1)["golden"]["sensor"]
    assert np.array_equal(first, again)


def test_trojan_campaign_differs_from_golden(chip, sim_scenario):
    specs = _small_specs(chip, sim_scenario)[:2]
    out = run_campaigns(specs, workers=1)
    assert not np.array_equal(
        out["golden"]["sensor"], out["trojan1"]["sensor"]
    )


def test_duplicate_names_rejected(chip, sim_scenario):
    spec = _small_specs(chip, sim_scenario)[0]
    with pytest.raises(ExperimentError):
        run_campaigns([spec, spec], workers=1)


def test_unknown_kind_rejected(chip, sim_scenario):
    with pytest.raises(ExperimentError):
        campaign_spec("x", "nope", chip, sim_scenario)


def test_default_rng_role_is_per_campaign(chip, sim_scenario):
    spec = campaign_spec(
        "auto-role", "ed", chip, sim_scenario, n_traces=4, batch=4
    )
    assert ("rng_role", "campaign/auto-role") in spec.params


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV_VAR, "5")
    assert resolve_workers() == 5
    monkeypatch.setenv(WORKERS_ENV_VAR, "zero?")
    with pytest.raises(ExperimentError):
        resolve_workers()
    monkeypatch.delenv(WORKERS_ENV_VAR)
    assert resolve_workers() >= 1
    with pytest.raises(ExperimentError):
        resolve_workers(0)


def test_pool_worker_metrics_merge_into_the_active_registry(
    chip, sim_scenario
):
    # Workers record into their own registries; the parent folds each
    # returned state in, so the pooled run reports what the serial one
    # does.  Timings differ, so histograms compare by sample count.
    # The pinned config allows the pool on any host and keeps the
    # trace cache off.
    specs = _small_specs(chip, sim_scenario)
    with use_config(ReproConfig(host_cpus=2, workers=2)):
        with use_metrics() as serial:
            run_campaigns(specs, workers=1)
        with use_metrics() as pooled:
            run_campaigns(specs, workers=2)
    s_state, p_state = serial.state_dict(), pooled.state_dict()
    assert s_state["counters"]
    assert p_state["counters"] == s_state["counters"]
    assert {n: len(v) for n, v in p_state["histograms"].items()} == {
        n: len(v) for n, v in s_state["histograms"].items()
    }


def test_killed_pool_worker_fails_typed_and_fast(
    chip, sim_scenario, sil_scenario, monkeypatch
):
    # A worker SIGKILLed in the middle of its campaign group must
    # surface as an ExperimentError naming the group's campaigns, not a
    # BrokenProcessPool and not a hang.  The two scenarios put the
    # campaigns in two groups, so each runs in its own worker.
    def run_group(group):
        if group[0].name == "victim":
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.2)
        return {spec.name: {} for spec in group}

    monkeypatch.setattr(parallel, "_run_group", run_group)
    specs = [
        campaign_spec(
            name, "ed", chip, scenario, n_traces=4, batch=4,
            receivers=("sensor",),
        )
        for name, scenario in (
            ("victim", sim_scenario), ("bystander", sil_scenario),
        )
    ]

    def hung(signum, frame):
        raise TimeoutError("run_campaigns hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    start = time.monotonic()
    try:
        with use_config(ReproConfig(host_cpus=2, workers=2)):
            with pytest.raises(ExperimentError, match="'victim'.*worker"):
                run_campaigns(specs, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 60
