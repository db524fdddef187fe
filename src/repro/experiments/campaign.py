"""Shared campaign plumbing for the experiment drivers.

Chips take seconds to assemble, so :func:`shared_chip` memoises one
instance per (seed, trojan-set).  A campaign is planned by one of three
planners (:data:`CAMPAIGN_PLANNERS`), each describing it as a lane
group member, a shape it shares with the other members of its pass,
and a per-member post-process:

* :func:`ed_campaign` — back-to-back encryptions cut into
  per-encryption windows (the fingerprinting view).  Cutting windows
  out of one long run, rather than resetting per trace, is what gives
  every Trojan counter a *random phase* relative to the encryption —
  on a real bench the 750 kHz carrier is never reset-synchronised to
  the AES start pulse, and T1's characteristic flat/bimodal histogram
  (Fig. 6e) only appears because of that.
* :func:`spectral_campaign` — one long continuous record for FFT
  analysis.
* :func:`raw_campaign` — undecimated full-bench records (the SNR
  experiment's view).

:func:`acquire_campaigns` acquires any list of plans with one
lane-packed ``acquire_group`` pass per shape; the golden and Trojan
campaigns of one netlist differ only in their enable pins and random
streams, so they share the simulator's lane words, and every result
equals its solo acquisition byte for byte.
:func:`collect_ed_traces` and :func:`collect_spectral_record` acquire
one campaign alone.

:func:`get_or_generate_campaigns` is the entry point every driver
funnels through: it canonicalises each request into a
:class:`~repro.io.cache.PipelineKey`, serves hits from the
content-addressed disk cache (``REPRO_CACHE_DIR``) when one is enabled
and generates every miss in one :func:`acquire_campaigns` call, so two
drivers — or two whole experiment suites — requesting the same (seed,
scenario, trojan-set, receiver) bundle only ever pay for one
generation pass.  :func:`get_or_generate_traces` is its one-request
case.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from scipy import signal

from repro.chip.acquire import (
    AcquisitionResult,
    EncryptionWorkload,
    GroupMember,
    IdleWorkload,
    acquisition_engine,
)
from repro.chip.chip import ALL_TROJANS, Chip
from repro.chip.config import ChipConfig
from repro.chip.scenario import Scenario
from repro.errors import ExperimentError
from repro.io.cache import PipelineKey, TraceCache, configured_cache
from repro.io.store import TraceBundle
from repro.obs import active_metrics

#: The fixed secret key all campaigns encrypt under.
DEFAULT_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

#: Encryption repetition period in cycles (AES latency 11 + 1 idle).
ED_PERIOD = 12

#: Encryption period for *spectral* campaigns.  Deliberately coprime-ish
#: with the clock dividers so the encryption comb (f_clk / period and
#: harmonics) does not sit on the divider lines the A2 analysis watches
#: — on a real bench, irregular encryption spacing decorrelates these
#: the same way.
SPECTRAL_PERIOD = 13

#: Extra trailing cycles discarded at the start of each record while
#: registers come out of reset.
WARMUP_WINDOWS = 2

#: Decimation factor of the fingerprinting front end.  The bench chain
#: (probe/sensor amplifier + scope) is band-limited well below the raw
#: synthesis rate; decimating to ~200 MS/s keeps every per-cycle power
#: feature while averaging out sample-level plaintext jitter, exactly
#: like the paper's acquisition.
ED_DECIMATE = 12


@lru_cache(maxsize=8)
def _decimation_sos(q: int) -> np.ndarray:
    """Anti-alias filter of ``signal.decimate(x, q)``, designed once per *q*.

    The same order-8 Chebyshev type I design (0.05 dB ripple, cutoff
    ``0.8 / q``) ``signal.decimate`` builds on every call; every
    receiver of every campaign shares it, so callers must not mutate
    it (it stays writeable: ``sosfiltfilt``'s kernel rejects read-only
    coefficient buffers).
    """
    return signal.cheby1(8, 0.05, 0.8 / q, output="sos")


@lru_cache(maxsize=4)
def shared_chip(seed: int = 0, trojans: tuple[str, ...] = ALL_TROJANS) -> Chip:
    """Build (once) and return the shared test chip."""
    return Chip.build(config=ChipConfig(), trojans=trojans, seed=seed)


@lru_cache(maxsize=4)
def shared_array_chip(
    seed: int = 0,
    rows: int = 4,
    cols: int = 4,
    trojans: tuple[str, ...] = ALL_TROJANS,
) -> Chip:
    """Build (once) the test chip with an N×M sensor array installed.

    The logic, placement, power grid, sensor and probe are identical to
    :func:`shared_chip` — the array only *adds* receiver channels — but
    it is memoised separately because its coupling tensor makes the
    object larger and most campaigns never need it.
    """
    return Chip.build(
        config=ChipConfig(sensor_array_rows=rows, sensor_array_cols=cols),
        trojans=trojans,
        seed=seed,
    )


_CALIBRATION_CACHE: dict[tuple[int, tuple[str, ...], str], Scenario] = {}


def clear_campaign_caches() -> None:
    """Release every process-level campaign cache.

    The memoised :func:`~repro.chip.acquire.acquisition_engine` and
    :func:`shared_chip` each pin strong references to full ``Chip``
    objects (coupling matrices included, tens of MB apiece) for the
    process lifetime; a weakref cache would not help because the cached
    engine itself holds its chip alive.  Campaign teardown — end of an
    experiment driver, a test session, or a worker that is done — calls
    this instead, after which dropped chips are garbage-collectable
    (``tests/chip/test_packed_acquisition.py`` pins that).
    """
    acquisition_engine.cache_clear()
    shared_chip.cache_clear()
    shared_array_chip.cache_clear()
    _CALIBRATION_CACHE.clear()
    # Imported lazily: parallel imports this module at load time.
    from repro.experiments import parallel as _parallel

    _parallel._CHIP_CACHE.clear()


def calibrated(chip: Chip, scenario: Scenario) -> Scenario:
    """SNR-anchored variant of *scenario* for *chip* (memoised).

    See :mod:`repro.chip.calibration`: the four unknown bench noise
    magnitudes are solved from the paper's four reported SNR figures.
    The cache keys on the values that determine the calibration —
    ``(chip.seed, chip.trojans, scenario.name)`` — not ``id(chip)``,
    which a recycled address after garbage collection could collide.
    """
    from repro.chip.calibration import calibrate_scenario

    key = (chip.seed, tuple(chip.trojans), scenario.name)
    cached = _CALIBRATION_CACHE.get(key)
    if cached is None:
        cached = calibrate_scenario(chip, scenario)
        _CALIBRATION_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class CampaignShape:
    """What lane-packed campaigns share: one ``acquire_group`` pass's
    arguments.  ``receivers=None`` means all of the chip's receivers."""

    n_cycles: int
    receivers: tuple[str, ...] | None
    include_noise: bool


@dataclass(frozen=True)
class CampaignPlan:
    """One collector call as the three parts a grouped pass needs.

    :attr:`member` is the campaign's lane group member (its name is
    replaced when it joins a group), :attr:`shape` what it must share
    with the other members of its pass, and :attr:`finish` turns its
    :class:`~repro.chip.acquire.AcquisitionResult` into the collector's
    ``{receiver: 2-D trace matrix}``.
    """

    member: GroupMember
    shape: CampaignShape
    finish: Callable[[AcquisitionResult], dict[str, np.ndarray]]


def ed_campaign(
    chip: Chip,
    scenario: Scenario,
    n_traces: int,
    trojan_enables: tuple[str, ...] = (),
    receivers: tuple[str, ...] = ("sensor", "probe"),
    rng_role: str = "ed",
    batch: int = 64,
    key: bytes = DEFAULT_KEY,
    decimate: int = ED_DECIMATE,
) -> CampaignPlan:
    """Plan of per-encryption EM traces, ``{receiver: (n_traces,
    window_samples)}``.

    Runs ``ceil(n_traces / batch)`` windows worth of back-to-back
    encryptions per batch column, segments each receiver record into
    one window per encryption, and band-limits/decimates to the
    analysis rate (set ``decimate=1`` for raw traces).

    *batch* is an upper bound: the campaign runs ``min(batch,
    n_traces)`` lanes, since lanes past ``n_traces`` would only hold
    windows segmentation throws away.  With ``n_traces <= batch``
    every lane holds one usable window either way, so the record
    length does not change.
    """
    receivers = tuple(receivers)
    batch = min(batch, n_traces)
    windows_per_col = -(-n_traces // batch) + WARMUP_WINDOWS
    spc = chip.config.samples_per_cycle

    def finish(result: AcquisitionResult) -> dict[str, np.ndarray]:
        return {
            name: segment_ed_windows(
                result.traces[name],
                batch=batch,
                n_traces=n_traces,
                spc=spc,
                decimate=decimate,
            )
            for name in receivers
        }

    return CampaignPlan(
        GroupMember(
            name=rng_role,
            workload=EncryptionWorkload(chip.aes, key, period=ED_PERIOD),
            batch=batch,
            trojan_enables=tuple(trojan_enables),
            rng_role=rng_role,
        ),
        CampaignShape(windows_per_col * ED_PERIOD, receivers, True),
        finish,
    )


def segment_ed_windows(
    rec: np.ndarray,
    *,
    batch: int,
    n_traces: int,
    spc: int,
    decimate: int = ED_DECIMATE,
) -> np.ndarray:
    """Cut one receiver record into per-encryption analysis windows.

    The post-processing of :func:`ed_campaign`: band-limit/decimate the
    ``(batch, samples)`` record, strip the warm-up windows, and
    interleave batch columns into ``(n_traces, window_samples)``.
    Every operation here is row-wise, so a member of a lane-packed pass
    lands on byte-identical windows to its solo campaign.
    """
    window = ED_PERIOD * spc
    windows_per_col = -(-n_traces // batch) + WARMUP_WINDOWS
    usable = windows_per_col - WARMUP_WINDOWS
    if decimate > 1:
        # signal.decimate(rec, decimate, axis=1) with the design cached.
        rec = signal.sosfiltfilt(_decimation_sos(decimate), rec, axis=1)
        rec = rec[:, ::decimate]
        w = window // decimate
    else:
        w = window
    segs = rec[:, WARMUP_WINDOWS * w : (WARMUP_WINDOWS + usable) * w]
    segs = segs.reshape(batch, usable, w)
    # Interleave batch columns so truncation keeps phase diversity.
    segs = segs.transpose(1, 0, 2).reshape(batch * usable, w)
    # With one usable window per column the reshapes are views of the
    # whole record: copy, so the windows do not keep the record alive.
    return np.ascontiguousarray(segs[:n_traces])


def spectral_campaign(
    chip: Chip,
    scenario: Scenario,
    n_cycles: int = 4096,
    trojan_enables: tuple[str, ...] = (),
    receivers: tuple[str, ...] = ("sensor",),
    rng_role: str = "spectrum",
    encrypting: bool = True,
    key: bytes = DEFAULT_KEY,
    batch: int = 4,
    include_noise: bool = False,
) -> CampaignPlan:
    """Plan of long continuous records, ``{receiver: (batch, samples)}``.

    Rows are independent records; averaging their magnitude spectra
    (which :func:`repro.analysis.spectral.amplitude_spectrum` does)
    knocks the noise floor down like a spectrum analyser's averaging.
    Every spectral campaign replays one plaintext sequence (the
    ``spectral/shared-operation`` workload role), so golden and Trojan
    records compare "the same operation".

    ``include_noise`` defaults to False: the paper's spectral figures
    are simulation plots / heavily averaged captures whose additive
    noise floor sits below the spots of interest; reproducing that
    averaging directly would need million-cycle records, so the
    drivers analyse the noise-free signal path instead (the noisy
    variant remains available for ablations).
    """
    receivers = tuple(receivers)
    return CampaignPlan(
        GroupMember(
            name=rng_role,
            workload=(
                EncryptionWorkload(chip.aes, key, period=SPECTRAL_PERIOD)
                if encrypting
                else IdleWorkload()
            ),
            batch=batch,
            trojan_enables=tuple(trojan_enables),
            rng_role=rng_role,
            workload_role="spectral/shared-operation",
        ),
        CampaignShape(n_cycles, receivers, include_noise),
        lambda result: {name: result.traces[name] for name in receivers},
    )


def raw_campaign(
    chip: Chip,
    scenario: Scenario,
    n_cycles: int,
    batch: int = 8,
    encrypting: bool = True,
    trojan_enables: tuple[str, ...] = (),
    receivers: tuple[str, ...] | None = None,
    rng_role: str = "raw",
    key: bytes = DEFAULT_KEY,
    period: int = ED_PERIOD,
    include_noise: bool = True,
) -> CampaignPlan:
    """Plan of full-rate continuous records, ``{receiver: (batch,
    samples)}``.

    The undecimated, unsegmented view the SNR experiment measures:
    either back-to-back encryptions (*encrypting*) or the idle noise
    record.  *receivers* defaults to all of the chip's receivers.
    """
    if receivers is not None:
        receivers = tuple(receivers)
    names = receivers if receivers is not None else tuple(chip.receivers)
    return CampaignPlan(
        GroupMember(
            name=rng_role,
            workload=(
                EncryptionWorkload(chip.aes, key, period=period)
                if encrypting
                else IdleWorkload()
            ),
            batch=batch,
            trojan_enables=tuple(trojan_enables),
            rng_role=rng_role,
        ),
        CampaignShape(n_cycles, receivers, include_noise),
        lambda result: {name: result.traces[name] for name in names},
    )


#: Campaign kinds of :func:`get_or_generate_campaigns`: each planner
#: describes its campaign deterministically from (chip, scenario,
#: params).
CAMPAIGN_PLANNERS = {
    "ed": ed_campaign,
    "spectral": spectral_campaign,
    "raw": raw_campaign,
}


def acquire_campaigns(
    chip: Chip, scenario: Scenario, plans: Sequence[CampaignPlan]
) -> list[dict[str, np.ndarray]]:
    """Acquire planned campaigns, one lane-packed pass per shape.

    Plans of equal :class:`CampaignShape` join one
    :meth:`~repro.chip.acquire.AcquisitionEngine.acquire_group` pass, in
    first-seen order, and each member is finished as soon as its
    synthesis is done.  Every result equals that plan's solo
    acquisition byte for byte.  Returns the results in plan order.
    """
    engine = acquisition_engine(chip, scenario)
    by_shape: dict[CampaignShape, list[int]] = {}
    for i, plan in enumerate(plans):
        by_shape.setdefault(plan.shape, []).append(i)
    out: list[dict[str, np.ndarray]] = [{} for _ in plans]
    for shape, indices in by_shape.items():
        results = engine.acquire_group(
            [replace(plans[i].member, name=str(i)) for i in indices],
            n_cycles=shape.n_cycles,
            receivers=shape.receivers,
            include_noise=shape.include_noise,
            finish=lambda member, result: plans[int(member.name)].finish(
                result
            ),
        )
        for i in indices:
            out[i] = results[str(i)]
    return out


def collect_ed_traces(chip, scenario, *args, **kwargs):
    """One :func:`ed_campaign`, acquired alone."""
    plan = ed_campaign(chip, scenario, *args, **kwargs)
    return acquire_campaigns(chip, scenario, [plan])[0]


def collect_spectral_record(chip, scenario, *args, **kwargs):
    """One :func:`spectral_campaign`, acquired alone."""
    plan = spectral_campaign(chip, scenario, *args, **kwargs)
    return acquire_campaigns(chip, scenario, [plan])[0]


def _planner(kind: str):
    planner = CAMPAIGN_PLANNERS.get(kind)
    if planner is None:
        raise ExperimentError(
            f"unknown campaign kind {kind!r}; expected one of "
            f"{tuple(CAMPAIGN_PLANNERS)}"
        )
    return planner


def _bound_params(kind: str, params: dict) -> dict:
    """*params* of a *kind* call with every default bound."""
    bound = inspect.signature(_planner(kind)).bind(None, None, **params)
    bound.apply_defaults()
    full = dict(bound.arguments)
    full.pop("chip")
    full.pop("scenario")
    return full


def campaign_pipeline_key(
    chip: Chip, scenario: Scenario, kind: str, params: dict
) -> PipelineKey:
    """Canonical cache key of one campaign request.

    Parameter defaults are bound before hashing, so spelling a default
    out explicitly (``batch=64``) addresses the same cache entry as
    omitting it.  An ``ed`` campaign is keyed on the lanes it runs,
    ``min(batch, n_traces)`` (:func:`ed_campaign`), so requests that
    differ only in a batch above their window count share one entry.
    """
    bound = _bound_params(kind, params)
    if kind == "ed":
        bound["batch"] = min(bound["batch"], bound["n_traces"])
    return PipelineKey.for_campaign(chip, scenario, kind, bound)


def get_or_generate_campaigns(
    chip: Chip,
    scenario: Scenario,
    requests: Sequence[tuple[str, dict]],
    cache: TraceCache | None | bool = None,
) -> list[dict[str, np.ndarray]]:
    """Serve several trace campaigns of one chip and scenario.

    *requests* holds ``(kind, params)`` pairs: *kind* picks the planner
    from :data:`CAMPAIGN_PLANNERS` and *params* are its keyword
    arguments.  Requests the cache holds are served from it; every miss
    is generated by :func:`acquire_campaigns`, one lane-packed pass per
    campaign shape, and only the misses are written back.  Returns one
    ``{receiver: traces}`` per request, in request order.

    *cache* resolves to the ``REPRO_CACHE_DIR`` environment cache when
    ``None``; pass a :class:`~repro.io.cache.TraceCache` to use a
    specific store, or ``False`` to force regeneration.  With no cache
    the campaigns are generated directly — same results, no disk
    traffic.

    Cache hits return **read-only memmapped** arrays bit-identical to
    what generation would produce; misses persist one bundle per
    receiver (atomic renames, so concurrent workers sharing the cache
    directory race benignly).
    """
    requests = [(kind, dict(params)) for kind, params in requests]
    for kind, _ in requests:
        _planner(kind)
    metrics = active_metrics()
    if cache is None:
        cache = configured_cache()
    elif cache is False:
        cache = None

    out: list[dict[str, np.ndarray] | None] = [None] * len(requests)
    keys: dict[int, PipelineKey] = {}
    for i, (kind, params) in enumerate(requests):
        if cache is None:
            break
        key = campaign_pipeline_key(chip, scenario, kind, params)
        receivers = _bound_params(kind, params)["receivers"]
        names = receivers if receivers is not None else chip.receivers
        cached: dict[str, np.ndarray] = {}
        for name in names:
            bundle = cache.get_bundle(key, receiver=name)
            if bundle is None:
                break
            cached[name] = bundle.traces
        if len(cached) == len(names):
            metrics.counter("traces.cache.hit").inc()
            out[i] = cached
        else:
            metrics.counter("traces.cache.miss").inc()
            keys[i] = key

    misses = [i for i, traces in enumerate(out) if traces is None]
    if not misses:
        return out
    with metrics.time("stage.traces.generate.seconds"):
        fresh = acquire_campaigns(
            chip,
            scenario,
            [
                _planner(kind)(chip, scenario, **params)
                for kind, params in (requests[i] for i in misses)
            ],
        )
    for i, traces in zip(misses, fresh):
        out[i] = traces
        if cache is None:
            continue
        trojan_enables = tuple(requests[i][1].get("trojan_enables", ()))
        for name, arr in traces.items():
            cache.put_bundle(
                keys[i],
                TraceBundle(
                    traces=arr,
                    receiver=name,
                    fs=chip.config.fs,
                    chip_seed=chip.seed,
                    scenario=scenario.name,
                    trojan_enables=trojan_enables,
                    extras={
                        "kind": requests[i][0],
                        "pipeline_key": keys[i].digest(),
                    },
                ),
                receiver=name,
            )
    return out


def get_or_generate_traces(
    chip: Chip,
    scenario: Scenario,
    kind: str,
    cache: TraceCache | None | bool = None,
    **params,
) -> dict[str, np.ndarray]:
    """Serve one trace campaign from the cache, generating it on a miss.

    The one-request case of :func:`get_or_generate_campaigns`, the
    shared entry point of every experiment driver.
    """
    return get_or_generate_campaigns(
        chip, scenario, [(kind, params)], cache=cache
    )[0]


def get_or_fit_detector(
    chip: Chip,
    scenario: Scenario,
    kind: str,
    params: dict,
    golden_traces: np.ndarray,
    cache: TraceCache | None | bool = None,
    detector_name: str = "euclidean",
    **detector_kwargs,
):
    """Fitted registry detector, cached as a derived artifact of the
    golden campaign.

    The fitted statistics (fingerprint, Eq. (1) threshold, bootstrap
    floor — or a reference-free population baseline) are pure
    functions of the trace campaign and the detector
    hyper-parameters, so they are addressed by the campaign's
    :class:`PipelineKey` derived with the ``detector`` label — the
    paper's "golden fingerprint fitted once, reused across every
    suspect evaluation" made literal.  *detector_name* resolves
    through :mod:`repro.detectors.registry`; the default keeps the
    historical Euclidean detector and its exact cache keys.
    """
    from repro.detectors.registry import create_detector, detector_from_state

    if cache is None:
        cache = configured_cache()
    elif cache is False:
        cache = None
    if cache is None:
        return create_detector(detector_name, **detector_kwargs).fit(
            golden_traces
        )

    derive_kwargs = dict(detector_kwargs)
    if detector_name != "euclidean":
        # Only non-default names join the key, so every pre-existing
        # cached Euclidean detector state stays addressable.
        derive_kwargs["detector_name"] = detector_name
    key = campaign_pipeline_key(chip, scenario, kind, params).derived(
        "detector", **derive_kwargs
    )
    state = cache.get_json(key)
    if state is not None:
        return detector_from_state(detector_name, state)
    detector = create_detector(detector_name, **detector_kwargs).fit(
        golden_traces
    )
    cache.put_json(key, detector.state_dict())
    return detector
