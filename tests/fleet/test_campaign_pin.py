"""The chip-backed fleet campaign's journal, pinned to ``CACHE_SALT``.

:func:`~repro.fleet.run_fleet_campaign` runs on the sizes of the
pipeline benchmark's ``fleet_stream`` workload: the seed-1 shared chip,
a golden and a Trojan-4 fleet member, a 64-window Euclidean
characterisation, 32 streamed windows per chip in two 16-window chunks
and the benchmark's link faults.  The flushed journal covers the
acquired windows end to end: the alarm statistics, the drop and
duplicate accounting and the spectral sweep.  Its SHA-256 is held to
the salt-bound pin in :mod:`tests.trace_pins`, so a change that moves
any trace bit must bump the salt, as for the collector pins.

The campaign's windows come from one lane-packed acquisition per chunk
across the fleet (:class:`~repro.fleet.producer.GroupChunkSource`).
Each chip's chunk must equal a solo ``collect_ed_traces`` campaign
under the chunk's RNG role, byte for byte.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.chip import simulation_scenario
from repro.experiments.campaign import collect_ed_traces
from repro.fleet import (
    ChunkPlan,
    FaultSpec,
    FleetConfig,
    GroupChunkSource,
    chunk_role,
    run_fleet_campaign,
)
from tests.trace_pins import check_pin

#: The pipeline benchmark's fleet: one trusted and one Trojaned chip.
FLEET = (("golden", ()), ("trojan4", ("trojan4",)))


def test_campaign_journal_is_pinned(tmp_path):
    path = tmp_path / "campaign.jsonl"
    config = FleetConfig.smoke(
        seed=1,
        detector="euclidean",
        scoring="batched",
        campaign_workers=1,
        faults=FaultSpec(drop=0.02, duplicate=0.02, reorder=0.05),
        n_golden=64,
        n_windows=32,
        chunk=16,
        monitor_window=16,
        spectral_cycles=32,
        journal_path=str(path),
    )
    result = run_fleet_campaign(config, fleet=FLEET)
    assert result.journal_path == str(path)
    assert result.all_match_oneshot
    assert result.flagged == ("trojan4",)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    check_pin("fleet/campaign-journal", digest)


def test_group_chunks_match_solo_chunk_campaigns(chip):
    scenario = simulation_scenario()
    plan = ChunkPlan(n_windows=7, chunk=4)
    source = GroupChunkSource(chip, scenario, FLEET, plan, batch=3)
    for k in range(plan.n_chunks):
        lo, hi = plan.bounds(k)
        chunk = source.generate(k, lo, hi)
        for chip_id, enables in FLEET:
            solo = collect_ed_traces(
                chip, scenario, hi - lo, trojan_enables=enables,
                receivers=("sensor",), batch=3,
                rng_role=chunk_role(f"fleet/ed/{chip_id}", plan, k),
            )["sensor"]
            np.testing.assert_array_equal(chunk[chip_id], solo)
