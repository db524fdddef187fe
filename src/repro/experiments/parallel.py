"""Parallel campaign runner.

Trojan sweeps are embarrassingly parallel: one acquisition campaign per
(Trojan, scenario, receiver) combination, no shared mutable state.
:func:`run_campaigns` fans a list of :class:`CampaignSpec` across a
``ProcessPoolExecutor`` and returns exactly what the serial loop would
have produced — every random stream is derived from
``(chip.seed ^ scenario.seed, rng_role)`` through :func:`repro.rng.derive`
inside the acquisition engine, so a campaign's traces depend only on its
spec, never on which process ran it or in what order.

Workers rebuild (or, under the ``fork`` start method, inherit) the chip
via :func:`repro.experiments.campaign.shared_chip`; a caller holding a
chip that did not come from that cache can make it available to the
serial path and forked workers with :func:`register_chip`.

Worker count: ``run_campaigns(..., workers=N)``, else the
``REPRO_WORKERS`` environment variable, else ``os.cpu_count()``.  With
one worker (or one campaign) everything runs in-process — same results,
no pool overhead.  The runner also degrades to the serial loop on its
own when the pool cannot win: never more workers than campaigns, and no
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
:class:`~repro.errors.ExperimentError` naming the campaign, instead of
a bare ``BrokenProcessPool``.
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
    TRACE_COLLECTORS,
    get_or_generate_traces,
    shared_chip,
)
from repro.obs import active_metrics, use_metrics

#: Campaign kinds understood by the runner (the collector registry).
CAMPAIGN_KINDS = tuple(TRACE_COLLECTORS)

#: Chips registered by callers, keyed like :func:`shared_chip`.  Forked
#: workers inherit this (copy-on-write), so a registered chip is never
#: rebuilt; spawned workers fall back to :func:`shared_chip`.
_CHIP_CACHE: dict[tuple[int, tuple[str, ...]], Chip] = {}


@dataclass(frozen=True)
class CampaignSpec:
    """One acquisition campaign, fully described by picklable values.

    ``params`` are keyword arguments for the collector chosen by
    ``kind`` (an entry of :data:`repro.experiments.campaign.
    TRACE_COLLECTORS`), stored as a sorted item tuple so specs are
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


def _run_one(spec: CampaignSpec) -> Any:
    """Execute one campaign (also the worker-process entry point).

    Routed through :func:`~repro.experiments.campaign.
    get_or_generate_traces`, so when ``REPRO_CACHE_DIR`` is set every
    worker consults — and, on a miss, populates — the shared
    content-addressed cache.  Writes are atomic renames, so concurrent
    workers generating the same bundle race benignly (last writer
    wins with identical bytes).
    """
    chip = _resolve_chip(spec)
    return get_or_generate_traces(
        chip, spec.scenario, spec.kind, **dict(spec.params)
    )


def _run_in_worker(spec: CampaignSpec) -> tuple[Any, dict]:
    """Pool entry point: one campaign plus the metrics it recorded."""
    with use_metrics() as registry:
        result = _run_one(spec)
    return result, registry.state_dict()


def run_campaigns(
    specs: Iterable[CampaignSpec],
    workers: int | None = None,
) -> dict[str, Any]:
    """Run every campaign and return ``{spec.name: collector result}``.

    Results are bit-identical to running the specs serially in a loop:
    campaigns share nothing, and all randomness is seeded from the spec
    itself.  The returned dict preserves the input order.  Metrics the
    pool workers record are merged into the active registry.

    Raises
    ------
    ExperimentError
        If a pool worker process dies; the message names the campaign
        whose result was lost.
    """
    spec_list = list(specs)
    names = [spec.name for spec in spec_list]
    if len(set(names)) != len(names):
        raise ExperimentError(f"campaign names must be unique, got {names}")
    # More workers than campaigns only adds idle processes; a pool on a
    # single CPU only adds fork + pickle overhead (measured 0.79× of
    # serial) — degrade to the bit-identical serial loop in both cases.
    # The single-CPU decision is taken once by ReproConfig from its
    # host_cpus snapshot, not re-read per call here.
    n_workers = min(resolve_workers(workers), len(spec_list))
    if n_workers > 1 and not active_config().pool_allowed:
        n_workers = 1
    if n_workers <= 1 or len(spec_list) <= 1:
        return {spec.name: _run_one(spec) for spec in spec_list}
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    metrics = active_metrics()
    results: dict[str, Any] = {}
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
        futures = [pool.submit(_run_in_worker, spec) for spec in spec_list]
        for spec, fut in zip(spec_list, futures):
            try:
                results[spec.name], state = fut.result()
            except BrokenProcessPool as exc:
                raise ExperimentError(
                    f"campaign {spec.name!r}: a pool worker process died "
                    "before returning its result"
                ) from exc
            metrics.merge_state(state)
    return results
