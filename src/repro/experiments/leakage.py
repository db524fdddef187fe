"""Leakage assessment experiments (TVLA) on the chip's EM traces.

Two uses of Welch's t-test:

* :func:`run_fixed_vs_random_tvla` — the standard first-order leakage
  assessment: the sensor traces of a *fixed* plaintext versus *random*
  plaintexts must fail TVLA (our AES is unprotected, so its EM
  emanations are supposed to leak — this validates the physical model
  against how real chips behave);
* :func:`run_trojan_tvla` — golden vs Trojan-active populations: an
  activated Trojan fails the t-test by construction, giving the
  framework a second, distribution-free detection statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.tvla import TvlaResult, welch_t_test
from repro.chip.acquire import EncryptionWorkload
from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.errors import ExperimentError
from repro.experiments.campaign import (
    DEFAULT_KEY,
    ED_PERIOD,
    acquire_campaigns,
    collect_ed_traces,
    ed_campaign,
)


class FixedPlaintextWorkload(EncryptionWorkload):
    """Encrypt the *same* block over and over (TVLA's fixed class)."""

    def __init__(self, aes, key: bytes, plaintext: bytes, period: int = ED_PERIOD):
        super().__init__(aes, key, period=period)
        if len(plaintext) != 16:
            raise ExperimentError(
                f"plaintext must be 16 bytes, got {len(plaintext)}"
            )
        self.fixed_plaintext = bytes(plaintext)

    def inputs(self, cycle: int, batch: int):
        phase = cycle % self.period
        if phase == 0:
            pts = np.tile(
                np.frombuffer(self.fixed_plaintext, np.uint8), (batch, 1)
            )
            self.plaintexts.append(pts)
            return self.aes.start_inputs(pts, self._keys)
        if phase == 1:
            return self.aes.idle_inputs(batch)
        return None


#: TVLA's conventional fixed plaintext for AES.
TVLA_FIXED_PLAINTEXT = bytes.fromhex("da39a3ee5e6b4b0d3255bfef95601890")


@dataclass
class LeakageReport:
    """TVLA outcome plus campaign metadata."""

    result: TvlaResult
    n_fixed: int
    n_random: int
    label: str

    def format(self) -> str:
        return (
            f"{self.label}: {self.result.format()} "
            f"({self.n_fixed} vs {self.n_random} traces)"
        )


def run_fixed_vs_random_tvla(
    chip: Chip,
    scenario: Scenario,
    n_traces: int = 400,
    receiver: str = "sensor",
    key: bytes = DEFAULT_KEY,
) -> LeakageReport:
    """First-order fixed-vs-random TVLA on the sensor traces.

    Both classes are ``ed`` campaigns of one shape, acquired in one
    lane-packed pass; the fixed class replays TVLA's fixed plaintext.
    """
    fixed_plan, random_plan = (
        ed_campaign(chip, scenario, n_traces, receivers=(receiver,),
                    rng_role=f"tvla/{cls}", key=key, decimate=1)
        for cls in ("fixed", "random")
    )
    fixed_plan = replace(fixed_plan, member=replace(
        fixed_plan.member,
        workload=FixedPlaintextWorkload(chip.aes, key, TVLA_FIXED_PLAINTEXT),
    ))
    fixed, random_ = (
        traces[receiver]
        for traces in acquire_campaigns(
            chip, scenario, [fixed_plan, random_plan]
        )
    )
    result = welch_t_test(fixed, random_)
    return LeakageReport(
        result=result,
        n_fixed=fixed.shape[0],
        n_random=random_.shape[0],
        label="fixed-vs-random TVLA",
    )


def run_trojan_tvla(
    chip: Chip,
    scenario: Scenario,
    trojan: str,
    n_traces: int = 400,
    receiver: str = "sensor",
) -> LeakageReport:
    """Golden vs Trojan-active t-test (a second detection statistic)."""
    golden = collect_ed_traces(
        chip,
        scenario,
        n_traces,
        receivers=(receiver,),
        rng_role="tvla/golden",
        decimate=1,
    )[receiver]
    dirty = collect_ed_traces(
        chip,
        scenario,
        n_traces,
        trojan_enables=(trojan,),
        receivers=(receiver,),
        rng_role=f"tvla/{trojan}",
        decimate=1,
    )[receiver]
    result = welch_t_test(golden, dirty)
    return LeakageReport(
        result=result,
        n_fixed=golden.shape[0],
        n_random=dirty.shape[0],
        label=f"golden-vs-{trojan} TVLA",
    )
