"""Parallel campaign runner.

Trojan sweeps are one acquisition campaign per (Trojan, scenario,
receiver) combination, with no shared mutable state.
:func:`run_campaigns` first groups its :class:`CampaignSpec` list by
(chip, scenario, campaign shape): the campaigns of one group differ
only in enable pins and random streams, so each group is generated in
one lane-packed acquisition pass
(:func:`repro.experiments.campaign.get_or_generate_campaigns`).  The
groups then run in a serial loop or fan out across a
``ProcessPoolExecutor``, and the result is exactly what solo campaigns
in a serial loop would have produced — every random stream is derived
from ``(chip.seed ^ scenario.seed, rng_role)`` through
:func:`repro.rng.derive` inside the acquisition engine, so a campaign's
traces depend only on its spec, never on its group, the process that
ran it or the order.

Workers rebuild (or, under the ``fork`` start method, inherit) the chip
via :func:`repro.experiments.campaign.shared_chip`; a caller holding a
chip that did not come from that cache can make it available to the
serial path and forked workers with :func:`register_chip`.

Worker count: ``run_campaigns(..., workers=N)``, else the
``REPRO_WORKERS`` environment variable, else ``os.cpu_count()``.  With
one worker (or one campaign) everything runs in-process — same results,
no pool overhead.  The runner also degrades to the serial loop on its
own when the pool cannot win: never more workers than groups, and no
pool at all on a single-CPU host (where fork + pickle overhead measured
0.79× of serial; tests that exercise the pool itself pin a config with
``host_cpus=2``).  See ``docs/PERFORMANCE.md`` for when the fan-out
actually pays off.

Instrumentation survives the pool: each worker runs its campaign under
a fresh :func:`repro.obs.use_metrics` registry and returns that
registry's :meth:`~repro.obs.metrics.MetricsRegistry.state_dict` with
the result; the parent folds it into :func:`repro.obs.active_metrics`
through :meth:`~repro.obs.metrics.MetricsRegistry.merge_state`, so
counters and histogram samples match the serial run's.  A worker that
dies (killed, out of memory) fails the run with an
:class:`~repro.errors.ExperimentError` naming the campaigns of its
group, instead of a bare ``BrokenProcessPool``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Iterable

from repro.chip.chip import Chip
from repro.chip.scenario import Scenario
from repro.config import active_config
from repro.errors import ExperimentError
from repro.experiments.campaign import (
    CAMPAIGN_PLANNERS,
    get_or_generate_campaigns,
    shared_chip,
)
from repro.obs import active_metrics, use_metrics

#: Campaign kinds understood by the runner (the planner registry).
CAMPAIGN_KINDS = tuple(CAMPAIGN_PLANNERS)

#: Chips registered by callers, keyed like :func:`shared_chip`.  Forked
#: workers inherit this (copy-on-write), so a registered chip is never
#: rebuilt; spawned workers fall back to :func:`shared_chip`.
_CHIP_CACHE: dict[tuple[int, tuple[str, ...]], Chip] = {}


@dataclass(frozen=True)
class CampaignSpec:
    """One acquisition campaign, fully described by picklable values.

    ``params`` are keyword arguments for the planner chosen by
    ``kind`` (an entry of :data:`repro.experiments.campaign.
    CAMPAIGN_PLANNERS`), stored as a sorted item tuple so specs are
    hashable and order-insensitive.
    """

    name: str
    kind: str
    scenario: Scenario
    chip_seed: int
    chip_trojans: tuple[str, ...]
    params: tuple[tuple[str, Any], ...]


def campaign_spec(
    name: str,
    kind: str,
    chip: Chip,
    scenario: Scenario,
    **params: Any,
) -> CampaignSpec:
    """Build a :class:`CampaignSpec` for *chip* under *scenario*.

    The campaign's random streams are labelled by its ``rng_role``;
    when the caller does not pass one, a role unique to *name* is
    derived so distinct campaigns never share a stream.
    """
    if kind not in CAMPAIGN_KINDS:
        raise ExperimentError(
            f"unknown campaign kind {kind!r}; expected one of {CAMPAIGN_KINDS}"
        )
    params.setdefault("rng_role", f"campaign/{name}")
    register_chip(chip)
    return CampaignSpec(
        name=name,
        kind=kind,
        scenario=scenario,
        chip_seed=chip.seed,
        chip_trojans=tuple(chip.trojans),
        params=tuple(sorted(params.items())),
    )


def register_chip(chip: Chip) -> None:
    """Make *chip* available to the runner without a rebuild.

    The serial path and ``fork``-started workers resolve the chip from
    this cache; workers on spawn-only platforms rebuild an identical
    chip from ``(seed, trojans)`` via :func:`shared_chip`.
    """
    _CHIP_CACHE[(chip.seed, tuple(chip.trojans))] = chip


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument, ``REPRO_WORKERS``, cpu count.

    Resolution goes through :func:`repro.config.active_config`, so a
    config pinned with :func:`repro.config.use_config` beats the
    environment variable.
    """
    if workers is None:
        workers = active_config().effective_workers()
    if workers < 1:
        raise ExperimentError(f"worker count must be >= 1, got {workers}")
    return workers


def _resolve_chip(spec: CampaignSpec) -> Chip:
    chip = _CHIP_CACHE.get((spec.chip_seed, spec.chip_trojans))
    if chip is None:
        chip = shared_chip(spec.chip_seed, spec.chip_trojans)
    return chip


def _group_specs(specs: list[CampaignSpec]) -> list[list[CampaignSpec]]:
    """*specs* grouped by (chip, scenario, campaign shape), first-seen
    order: each group is one lane-packed acquisition pass."""
    groups: dict[tuple, list[CampaignSpec]] = {}
    for spec in specs:
        chip = _resolve_chip(spec)
        shape = CAMPAIGN_PLANNERS[spec.kind](
            chip, spec.scenario, **dict(spec.params)
        ).shape
        key = (spec.chip_seed, spec.chip_trojans, spec.scenario, shape)
        groups.setdefault(key, []).append(spec)
    return list(groups.values())


def _run_group(group: list[CampaignSpec]) -> dict[str, Any]:
    """Execute one campaign group (also the worker-process entry point).

    Routed through :func:`~repro.experiments.campaign.
    get_or_generate_campaigns`, so when ``REPRO_CACHE_DIR`` is set every
    worker consults — and, on a miss, populates — the shared
    content-addressed cache.  Writes are atomic renames, so concurrent
    workers generating the same bundle race benignly (last writer
    wins with identical bytes).
    """
    first = group[0]
    results = get_or_generate_campaigns(
        _resolve_chip(first),
        first.scenario,
        [(spec.kind, dict(spec.params)) for spec in group],
    )
    return {spec.name: traces for spec, traces in zip(group, results)}


def _run_in_worker(group: list[CampaignSpec]) -> tuple[dict, dict]:
    """Pool entry point: one campaign group plus the metrics it recorded."""
    with use_metrics() as registry:
        results = _run_group(group)
    return results, registry.state_dict()


def run_campaigns(
    specs: Iterable[CampaignSpec],
    workers: int | None = None,
) -> dict[str, Any]:
    """Run every campaign and return ``{spec.name: traces}``.

    Campaigns of one chip, scenario and shape are generated together in
    one lane-packed pass per group.  Results are bit-identical to
    running each spec alone in a serial loop: campaigns share nothing,
    and all randomness is seeded from the spec itself.  The returned
    dict preserves the input order.  Metrics the pool workers record
    are merged into the active registry.

    Raises
    ------
    ExperimentError
        If a pool worker process dies; the message names the campaigns
        whose results were lost.
    """
    spec_list = list(specs)
    names = [spec.name for spec in spec_list]
    if len(set(names)) != len(names):
        raise ExperimentError(f"campaign names must be unique, got {names}")
    groups = _group_specs(spec_list)
    # More workers than groups only adds idle processes; a pool on a
    # single CPU only adds fork + pickle overhead (measured 0.79× of
    # serial) — degrade to the bit-identical serial loop in both cases.
    # The single-CPU decision is taken once by ReproConfig from its
    # host_cpus snapshot, not re-read per call here.
    n_workers = min(resolve_workers(workers), len(groups))
    if n_workers > 1 and not active_config().pool_allowed:
        n_workers = 1
    results: dict[str, Any] = {}
    if n_workers <= 1:
        for group in groups:
            results.update(_run_group(group))
        return {name: results[name] for name in names}
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    metrics = active_metrics()
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
        futures = [pool.submit(_run_in_worker, group) for group in groups]
        for group, fut in zip(groups, futures):
            try:
                done, state = fut.result()
            except BrokenProcessPool as exc:
                lost = ", ".join(repr(spec.name) for spec in group)
                raise ExperimentError(
                    f"campaigns {lost}: a pool worker process died "
                    "before returning their results"
                ) from exc
            results.update(done)
            metrics.merge_state(state)
    return {name: results[name] for name in names}
