"""An ``ed`` campaign simulates only the lanes it keeps.

:func:`~repro.experiments.campaign.ed_campaign` runs ``min(batch,
n_traces)`` lanes: segmentation keeps the first ``n_traces`` windows,
and with fewer traces than lanes each lane holds one of them, so lanes
past ``n_traces`` would be simulated, folded and synthesised only to be
thrown away.  A request with at least as many traces as lanes runs
exactly as before the cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chip.acquire import EncryptionWorkload, acquisition_engine
from repro.experiments.campaign import (
    DEFAULT_KEY,
    ED_PERIOD,
    WARMUP_WINDOWS,
    get_or_generate_traces,
    segment_ed_windows,
)
from repro.fleet import ChunkPlan, GroupChunkSource
from repro.obs import use_metrics

#: The pipeline benchmark's fleet: one trusted and one Trojaned chip.
FLEET = (("golden", ()), ("trojan4", ("trojan4",)))


def _ed(chip, scenario, **params):
    return get_or_generate_traces(
        chip, scenario, "ed", cache=False, receivers=("sensor",), **params
    )["sensor"]


def _uncapped(chip, scenario, n_traces, batch, rng_role, trojan_enables=()):
    """The campaign on exactly *batch* lanes, segmented as ``ed`` does."""
    windows = -(-n_traces // batch) + WARMUP_WINDOWS
    result = acquisition_engine(chip, scenario).acquire(
        EncryptionWorkload(chip.aes, DEFAULT_KEY, period=ED_PERIOD),
        n_cycles=windows * ED_PERIOD,
        batch=batch,
        trojan_enables=trojan_enables,
        receivers=("sensor",),
        rng_role=rng_role,
    )
    return segment_ed_windows(
        result.traces["sensor"],
        batch=batch,
        n_traces=n_traces,
        spc=chip.config.samples_per_cycle,
    )


@pytest.mark.parametrize("n_traces, batch", [(5, 64), (3, 7)])
def test_fewer_traces_than_lanes_equals_a_batch_of_n_traces(
    chip, sim_scenario, n_traces, batch
):
    params = dict(
        n_traces=n_traces, trojan_enables=("trojan2",), rng_role="cap/few"
    )
    wide = _ed(chip, sim_scenario, batch=batch, **params)
    exact = _ed(chip, sim_scenario, batch=n_traces, **params)
    assert wide.shape[0] == n_traces
    assert np.array_equal(wide, exact)


def test_capped_campaign_steps_only_its_kept_lanes(chip, sim_scenario):
    n_traces = 5
    with use_metrics() as metrics:
        _ed(chip, sim_scenario, n_traces=n_traces, batch=64,
            rng_role="cap/count")
    windows_per_col = 1 + WARMUP_WINDOWS
    counters = metrics.snapshot()["counters"]
    assert counters["acquire.cycles"] == (
        windows_per_col * ED_PERIOD * n_traces
    )


def test_fleet_chunk_acquires_one_lane_per_window(chip, sim_scenario):
    plan = ChunkPlan(n_windows=32, chunk=16)
    source = GroupChunkSource(chip, sim_scenario, FLEET, plan, batch=64)
    with use_metrics() as metrics:
        chunk = source.generate(0, 0, 16)
    counters = metrics.snapshot()["counters"]
    assert counters["acquire.passes"] == 1
    # Two chips x 16 lanes, each lane one warm-up-led window column.
    assert counters["acquire.cycles"] == (
        len(FLEET) * 16 * (1 + WARMUP_WINDOWS) * ED_PERIOD
    )
    assert {c: rows.shape[0] for c, rows in chunk.items()} == {
        "golden": 16, "trojan4": 16,
    }


@pytest.mark.parametrize("n_traces, batch", [(9, 4), (8, 8)])
def test_at_least_as_many_traces_as_lanes_keeps_its_lanes(
    chip, sim_scenario, n_traces, batch
):
    got = _ed(chip, sim_scenario, n_traces=n_traces, batch=batch,
              trojan_enables=("trojan1",), rng_role="cap/full")
    want = _uncapped(chip, sim_scenario, n_traces, batch, "cap/full",
                     trojan_enables=("trojan1",))
    assert np.array_equal(got, want)
