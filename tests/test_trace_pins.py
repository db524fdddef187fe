"""Collector output pins, bound to ``CACHE_SALT``.

Every :data:`~repro.experiments.campaign.CAMPAIGN_PLANNERS` kind runs
once on a tiny fixed configuration of the shared seed-1 chip under the
uncalibrated simulation scenario, through
:func:`~repro.experiments.campaign.get_or_generate_traces` with the
cache off, and its traces must hash to the pin in
:mod:`tests.trace_pins`.  The configurations between them reach both
logic backends (batch 1 runs bool, batch 2 and up packed), a ragged
lane count, a Trojan tap on every kind, ED segmentation with
decimation, and every receiver of the chip.

The salt binding itself is checked here too: a moved digest under an
unchanged salt, and an unchanged pin under a bumped salt, both fail.
"""

from __future__ import annotations

import pytest

from repro.chip import simulation_scenario
from repro.experiments.campaign import (
    CAMPAIGN_PLANNERS,
    get_or_generate_traces,
)
from repro.io import cache
from tests.trace_pins import TRACE_PINS, check_pin, traces_digest

#: Collector keyword arguments per kind (tiny, fixed).
COLLECTOR_PARAMS = {
    "ed": dict(
        n_traces=6, batch=4, trojan_enables=("trojan1",), rng_role="pins/ed"
    ),
    "spectral": dict(
        n_cycles=40, batch=1, trojan_enables=("a2",), rng_role="pins/spectral"
    ),
    "raw": dict(
        n_cycles=24, batch=3, trojan_enables=("trojan2",), rng_role="pins/raw"
    ),
}


@pytest.fixture(scope="module")
def scenario():
    return simulation_scenario()


def test_every_collector_is_pinned():
    assert set(COLLECTOR_PARAMS) == set(CAMPAIGN_PLANNERS)
    assert {
        f"collector/{kind}" for kind in CAMPAIGN_PLANNERS
    } <= set(TRACE_PINS)


@pytest.mark.parametrize("kind", sorted(COLLECTOR_PARAMS))
def test_collector_output_is_pinned(chip, scenario, kind):
    traces = get_or_generate_traces(
        chip, scenario, kind, cache=False, **COLLECTOR_PARAMS[kind]
    )
    check_pin(f"collector/{kind}", traces_digest(traces))


def test_every_pin_carries_the_current_salt():
    stale = {
        pin: salt for pin, (salt, _) in TRACE_PINS.items()
        if salt != cache.CACHE_SALT
    }
    assert not stale, (
        f"pins taken under another salt than {cache.CACHE_SALT!r}: {stale}"
    )


class TestSaltBinding:
    PIN = "collector/ed"

    def test_moved_digest_under_same_salt_fails(self):
        with pytest.raises(pytest.fail.Exception, match="bump CACHE_SALT"):
            check_pin(self.PIN, "0" * 64)

    def test_bumped_salt_with_stale_pin_fails(self, monkeypatch):
        monkeypatch.setattr(cache, "CACHE_SALT", "repro-pipeline-next")
        with pytest.raises(pytest.fail.Exception, match="re-take every pin"):
            check_pin(self.PIN, TRACE_PINS[self.PIN][1])
