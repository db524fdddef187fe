"""The simulated fleet campaign: golden + T1–T4 + A2 under supervision.

Assembles everything in :mod:`repro.fleet` into the paper's deployment
story at fleet scale: one golden-characterised evaluator supervising a
set of deployed chips (one golden, five Trojaned), each streaming EM
trace windows over a faulty link into a monitor session, with a frequency-domain sweep covering what the time-domain
path cannot see (the A2 analog Trojan leaves no usable time-domain
trace; its gated trigger comb stands out spectrally — see
``tests/integration/test_end_to_end.py``).

The golden characterisation and the spectral records fan out across
processes through :func:`repro.experiments.parallel.run_campaigns`;
the streamed windows are generated live, chunk by chunk, by a
:class:`~repro.fleet.producer.StreamingTraceProducer` while the
scheduler scores the chunks already delivered.  Every chip's verdict
combines the streaming monitor and the spectral sweep through the
framework's :func:`~repro.framework.report.combine_verdicts`, exactly
like the one-shot evaluator, and the CLI's consistency check asserts
the two agree chip by chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.euclidean import DistanceReport, euclidean_distances
from repro.analysis.spectral import amplitude_spectrum, compare_spectra
from repro.chip.scenario import simulation_scenario
from repro.errors import AnalysisError, ExperimentError
from repro.experiments.campaign import (
    calibrated,
    get_or_fit_detector,
    shared_chip,
)
from repro.experiments.parallel import campaign_spec, run_campaigns
from repro.config import active_config
from repro.fleet.feed import NO_FAULTS, FaultSpec, TraceFeed
from repro.fleet.producer import (
    ChunkPlan,
    GroupChunkSource,
    StreamingTraceProducer,
)
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetResult, FleetScheduler
from repro.fleet.session import MonitorSession
from repro.framework.evaluator import EvaluatorConfig, RuntimeTrustEvaluator
from repro.framework.report import Verdict, combine_verdicts

#: The paper's fleet: the golden design plus every Trojaned variant.
DEFAULT_FLEET: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("golden", ()),
    ("trojan1", ("trojan1",)),
    ("trojan2", ("trojan2",)),
    ("trojan3", ("trojan3",)),
    ("trojan4", ("trojan4",)),
    ("a2", ("a2",)),
)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet campaign."""

    seed: int = 0
    receiver: str = "sensor"
    #: Registry name of the window detector, or ``None`` to defer to
    #: the active config (``REPRO_DETECTOR``).
    detector: str | None = None
    #: Golden characterisation campaign size (detector fit).
    n_golden: int = 512
    #: Streamed windows per fleet chip.
    n_windows: int = 384
    #: Monitor sliding-window length / alarm hysteresis.
    monitor_window: int = 256
    confirm: int = 3
    #: Session alarm threshold: ``"floor"`` (floor-scaled), ``None``
    #: (analytic three-sigma) or an explicit float.
    threshold: float | str | None = "floor"
    #: Arrival batching of the feeds [windows/batch].
    batch: int = 16
    queue_depth: int = 8
    policy: str = "block"
    #: Process fan-out of the golden and spectral campaigns.
    campaign_workers: int | None = None
    consume_every: int = 1
    #: Trace ingest, fixed at ``"stream"`` (a live chunked producer
    #: overlaps generation with scoring); any other value is
    #: rejected.  The field stays only because
    #: ``benchmarks/pipeline/workloads.py`` still passes it.
    ingest: str = "stream"
    #: Windows per campaign chunk: one acquisition per chunk, with a
    #: per-chunk RNG role (a one-chunk plan keeps the whole-campaign
    #: role), so the chunking is part of the campaign's definition.
    chunk: int = 64
    #: Link fault injection applied to every feed.
    faults: FaultSpec = NO_FAULTS
    #: Spectral sweep: record length, inspected band, boost criterion.
    spectral_cycles: int = 1536
    spectral_band: tuple[float, float] = (1e6, 60e6)
    boost_ratio: float = 1.3
    journal_path: str | None = None

    def __post_init__(self) -> None:
        if self.ingest != "stream":
            raise ExperimentError(
                f"fleet ingest must be 'stream', got {self.ingest!r}: the "
                "replay ingest was removed and every campaign streams its "
                "windows through the live producer"
            )

    @classmethod
    def smoke(cls, **overrides) -> "FleetConfig":
        """Reduced sizes for CI smoke runs (``REPRO_BENCH_SMOKE=1``)."""
        base = cls(
            n_golden=192,
            n_windows=96,
            monitor_window=64,
            confirm=2,
            batch=8,
            # Two chunks at smoke scale: still exercises the chunked
            # RNG roles / multi-APPEND streaming path while keeping
            # the marginal trojan1 verdict consistent with one-shot
            # (smaller chunks shift the noise realisation enough to
            # split the streaming and one-shot decisions).  Each
            # 48-window chunk runs 48 lanes per chip: an ``ed``
            # campaign caps its batch at its window count.
            chunk=48,
            spectral_cycles=768,
            # At smoke scale the bootstrap floor sits right on top of
            # the marginal Trojans' separations; the analytic envelope
            # keeps the streaming and one-shot decisions aligned.
            threshold=None,
        )
        return replace(base, **overrides)


@dataclass
class ChipVerdict:
    """One chip's combined fleet verdict plus the one-shot comparison."""

    chip_id: str
    verdict: Verdict
    time_alarm: bool
    spectral_alarm: bool
    first_alarm_window: int | None
    #: Alarm latency in delivered windows (None = never alarmed).
    alarm_latency: int | None
    #: The one-shot evaluator's verdict on the same delivered windows
    #: and the same spectral records.
    oneshot_verdict: Verdict
    separation: float
    separation_floor: float

    @property
    def matches_oneshot(self) -> bool:
        return self.verdict.is_alarm == self.oneshot_verdict.is_alarm


@dataclass
class FleetCampaignResult:
    """Everything one fleet campaign produced."""

    config: FleetConfig
    fleet: FleetResult
    verdicts: dict[str, ChipVerdict]
    metrics: dict = field(repr=False, default_factory=dict)
    journal_path: str | None = None

    @property
    def all_match_oneshot(self) -> bool:
        return all(v.matches_oneshot for v in self.verdicts.values())

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(
            c for c, v in self.verdicts.items() if v.verdict.is_alarm
        )

    def format(self) -> str:
        lines = ["fleet trust report", "=" * 18, self.fleet.format(), ""]
        header = (
            f"  {'chip':<9} {'verdict':<20} {'latency':>8} "
            f"{'separation':>11} {'one-shot':<20} match"
        )
        lines.append(header)
        for chip_id, v in self.verdicts.items():
            latency = (
                f"{v.alarm_latency}w" if v.alarm_latency is not None else "—"
            )
            lines.append(
                f"  {chip_id:<9} {v.verdict.value:<20} {latency:>8} "
                f"{v.separation:>11.4f} {v.oneshot_verdict.value:<20} "
                f"{'ok' if v.matches_oneshot else 'MISMATCH'}"
            )
        lines.append(
            f"  flagged: {', '.join(self.flagged) if self.flagged else '—'}"
        )
        return "\n".join(lines)


class StreamingOneShot:
    """Incremental one-shot evaluation over a streamed campaign.

    A streamed campaign never holds all its windows at once, so the
    one-shot statistics over the delivered windows accumulate chunk by
    chunk from the producer's ``on_chunk`` hook.  Each source window
    is weighted by its delivery count (duplicates count twice, drops
    zero).  Feature extraction and per-row distances are
    row-independent for every supported detector, so
    ``exceed_fraction`` (integer counts) is *exactly* the value of a
    whole-matrix evaluation of the delivered windows and
    the verdict booleans agree; ``mean_distance``/``separation``
    differ only by float summation order (~1 ulp).

    Euclidean-family detectors use their Eq. (1) row threshold and
    bootstrap separation floor, as :meth:`~repro.analysis.euclidean.
    EuclideanDetector.evaluate` does.  Other registry plugins (the
    reference-free spectral detectors) threshold each window's feature
    distance to the fitted fingerprint against the one-window
    ``streaming_threshold`` envelope, and the population's
    mean-feature separation against the full-set envelope — the
    statistics their :class:`~repro.framework.monitor.RuntimeMonitor`
    integration thresholds on.
    """

    def __init__(self, detector) -> None:
        if getattr(detector, "evaluate", None) is not None:
            # Euclidean family: Eq. (1) threshold + bootstrap floor.
            if (
                detector.threshold is None
                or detector.separation_floor is None
            ):
                raise ExperimentError(
                    "streaming one-shot needs a fitted detector"
                )
            self._row_threshold = float(detector.threshold)
            self._floor = lambda n: float(detector.separation_floor)
        else:
            # Registry plugins: the streaming-envelope statistics.
            try:
                self._row_threshold = float(detector.streaming_threshold(1))
            except AnalysisError as exc:
                raise ExperimentError(
                    "streaming one-shot needs a fitted detector"
                ) from exc
            self._floor = lambda n: float(
                detector.streaming_threshold(max(1, int(round(n))))
            )
        self.detector = detector
        self.weights: dict[str, np.ndarray] = {}
        self._acc: dict[str, dict] = {}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Per-chip delivery counts over source windows (pre-run)."""
        self.weights = {
            c: np.asarray(w, dtype=np.float64) for c, w in weights.items()
        }

    def __call__(self, index, lo, hi, data) -> None:
        # Runs on the producer thread, once per generated chunk; no
        # other thread touches the accumulators until report().
        fingerprint = self.detector.fingerprint
        for chip_id, weights in self.weights.items():
            w = weights[lo:hi]
            total = float(w.sum())
            if total == 0.0:
                continue
            feats = self.detector.features(data[chip_id])
            d = euclidean_distances(feats, fingerprint)
            acc = self._acc.setdefault(
                chip_id,
                {
                    "n": 0.0,
                    "dist": 0.0,
                    "exceed": 0.0,
                    "feat": np.zeros(feats.shape[1]),
                },
            )
            acc["n"] += total
            acc["dist"] += float(w @ d)
            acc["exceed"] += float(w @ (d > self._row_threshold))
            acc["feat"] += w @ feats

    def report(self, chip_id: str) -> DistanceReport:
        """The chip's accumulated :class:`DistanceReport` (post-run)."""
        if chip_id not in self._acc:
            raise ExperimentError(
                f"no windows of {chip_id!r} were delivered; cannot "
                "form a one-shot verdict"
            )
        acc = self._acc[chip_id]
        mean_feat = acc["feat"] / acc["n"]
        return DistanceReport(
            distances=np.empty(0),
            threshold=self._row_threshold,
            mean_distance=acc["dist"] / acc["n"],
            exceed_fraction=acc["exceed"] / acc["n"],
            separation=float(
                np.linalg.norm(mean_feat - self.detector.fingerprint)
            ),
            separation_floor=self._floor(acc["n"]),
        )


def build_fleet_evaluator(
    chip, scenario, config: FleetConfig, golden_traces
) -> RuntimeTrustEvaluator:
    """Evaluator over a pre-generated golden campaign (monitor path).

    The spectral reference is handled by the campaign's own sweep (the
    fleet compares band-limited spectra directly), so the evaluator is
    assembled around the fitted detector without the training-time
    spectrum acquisition.
    """
    params = dict(
        n_traces=config.n_golden,
        receivers=(config.receiver,),
        rng_role="fleet/golden",
    )
    detector_name = (
        config.detector
        if config.detector is not None
        else active_config().detector
    )
    detector = get_or_fit_detector(
        chip, scenario, "ed", params, golden_traces,
        detector_name=detector_name,
    )
    return RuntimeTrustEvaluator(
        detector=detector,
        config=EvaluatorConfig(
            receiver=config.receiver,
            n_reference=config.n_golden,
            detector=detector_name,
        ),
    )


def run_fleet_campaign(
    config: FleetConfig | None = None,
    fleet: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_FLEET,
) -> FleetCampaignResult:
    """Run one simulated fleet campaign end to end."""
    config = config or FleetConfig()
    ids = [chip_id for chip_id, _ in fleet]
    if len(set(ids)) != len(ids):
        raise ExperimentError(f"fleet chip ids must be unique, got {ids}")
    # The chunk plan is part of the campaign's definition: the
    # producer derives per-chunk RNG roles from it (a one-chunk plan
    # keeps the whole-campaign role).
    plan = ChunkPlan(n_windows=config.n_windows, chunk=config.chunk)
    chip = shared_chip(seed=config.seed)
    scenario = calibrated(chip, simulation_scenario())
    rcv = config.receiver

    # Every pre-materialised acquisition campaign, fanned out across
    # processes at once: the golden characterisation set and the
    # spectral-sweep records (golden reference + per chip).  The
    # streamed windows are generated live by the producer instead.
    specs = [
        campaign_spec(
            "fleet-golden",
            "ed",
            chip,
            scenario,
            n_traces=config.n_golden,
            receivers=(rcv,),
            rng_role="fleet/golden",
        ),
        campaign_spec(
            "fleet-spec-ref",
            "spectral",
            chip,
            scenario,
            n_cycles=config.spectral_cycles,
            receivers=(rcv,),
            rng_role="fleet/spec-ref",
        ),
    ]
    for chip_id, enables in fleet:
        specs.append(
            campaign_spec(
                f"fleet-spec-{chip_id}",
                "spectral",
                chip,
                scenario,
                n_cycles=config.spectral_cycles,
                trojan_enables=enables,
                receivers=(rcv,),
                rng_role=f"fleet/spec/{chip_id}",
            )
        )
    traces = run_campaigns(specs, workers=config.campaign_workers)

    evaluator = build_fleet_evaluator(
        chip, scenario, config, traces["fleet-golden"][rcv]
    )
    detector = evaluator.detector

    metrics = MetricsRegistry()
    journal = EventJournal(config.journal_path)
    journal.record(
        "campaign",
        chips=ids,
        n_windows=config.n_windows,
        monitor_window=config.monitor_window,
        confirm=config.confirm,
        policy=config.policy,
    )
    sessions = [
        MonitorSession(
            chip_id,
            evaluator,
            window=config.monitor_window,
            confirm=config.confirm,
            threshold=config.threshold,
            metrics=metrics,
            journal=journal,
        )
        for chip_id in ids
    ]
    # Live producer: one lane-packed acquisition per chunk across the
    # whole fleet, double-buffered against scoring.  The one-shot
    # comparison accumulates incrementally from the producer hook — a
    # streamed campaign never exists in full.
    oneshot_acc = StreamingOneShot(detector)
    producer = StreamingTraceProducer(
        GroupChunkSource(
            chip,
            scenario,
            fleet,
            plan,
            receiver=rcv,
            base_role="fleet/ed",
        ),
        ids,
        n_windows=config.n_windows,
        chunk=config.chunk,
        metrics=metrics,
        on_chunk=oneshot_acc,
    )
    feeds = [
        TraceFeed(
            chip_id,
            producer.source_for(chip_id),
            batch=config.batch,
            faults=config.faults,
            seed=config.seed,
        )
        for chip_id in ids
    ]
    oneshot_acc.set_weights(
        {
            f.chip_id: np.bincount(
                np.asarray(f.delivered_seqs, dtype=np.intp),
                minlength=config.n_windows,
            )
            if f.n_delivered
            else np.zeros(config.n_windows)
            for f in feeds
        }
    )
    scheduler = FleetScheduler(
        sessions,
        queue_depth=config.queue_depth,
        policy=config.policy,
        consume_every=config.consume_every,
        journal=journal,
        metrics=metrics,
    )
    try:
        producer.start()
        fleet_result = scheduler.run(feeds)
        # Trailing chunks the link dropped every window of still
        # belong to the campaign — wait until the one-shot accumulator
        # has seen them all.
        producer.join()
    finally:
        producer.close()

    # Frequency-domain sweep: every chip's record against the golden
    # reference, band-limited like Fig. 4.
    fs = chip.config.fs
    lo, hi = config.spectral_band
    golden_spec = amplitude_spectrum(
        traces["fleet-spec-ref"][rcv], fs
    ).band(lo, hi)
    verdicts: dict[str, ChipVerdict] = {}
    for chip_id in ids:
        with metrics.time("stage.spectral.seconds"):
            suspect_spec = amplitude_spectrum(
                traces[f"fleet-spec-{chip_id}"][rcv], fs
            ).band(lo, hi)
            comparison = compare_spectra(
                golden_spec, suspect_spec, boost_ratio=config.boost_ratio
            )
        journal.record(
            "spectral",
            chip=chip_id,
            detected=bool(comparison.detected),
            boosted=len(comparison.boosted_spots),
            new=len(comparison.new_spots),
        )
        report = fleet_result.reports[chip_id]
        # One-shot comparison: the plain detector over the exact trace
        # multiset the stream delivered, plus the same spectral sweep.
        oneshot = oneshot_acc.report(chip_id)
        verdicts[chip_id] = ChipVerdict(
            chip_id=chip_id,
            verdict=combine_verdicts(
                report.time_alarm, bool(comparison.detected)
            ),
            time_alarm=report.time_alarm,
            spectral_alarm=bool(comparison.detected),
            first_alarm_window=report.first_alarm_window,
            alarm_latency=report.first_alarm_window,
            oneshot_verdict=combine_verdicts(
                bool(oneshot.detected), bool(comparison.detected)
            ),
            separation=float(oneshot.separation),
            separation_floor=float(oneshot.separation_floor),
        )
    journal.flush()
    return FleetCampaignResult(
        config=config,
        fleet=fleet_result,
        verdicts=verdicts,
        metrics=metrics.snapshot(),
        journal_path=str(journal.path) if journal.path else None,
    )
