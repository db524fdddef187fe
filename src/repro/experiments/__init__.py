"""Experiment drivers — one per paper table/figure.

Each driver owns the full recipe of one reported result (workload,
acquisition, analysis, expected shape) and returns a plain-dataclass
result that both the benchmark harness and the tests consume.  The
mapping to the paper:

=====================  ==============================================
:mod:`~repro.experiments.table1`     Table I (Trojan sizes)
:mod:`~repro.experiments.snr`        Sections IV-B and V-A (SNR)
:mod:`~repro.experiments.euclidean`  Section IV-C (simulated EDs)
:mod:`~repro.experiments.fig4`       Figure 4 (A2 spectrum)
:mod:`~repro.experiments.fig6`       Figure 6 (histograms + spectra)
:mod:`~repro.experiments.ablation`   Design-space sweeps (Section VI)
=====================  ==============================================
"""

from repro.experiments.campaign import (
    CAMPAIGN_PLANNERS,
    DEFAULT_KEY,
    calibrated,
    clear_campaign_caches,
    collect_ed_traces,
    collect_spectral_record,
    get_or_fit_detector,
    get_or_generate_campaigns,
    get_or_generate_traces,
    shared_array_chip,
    shared_chip,
)
from repro.experiments.parallel import (
    CampaignSpec,
    campaign_spec,
    register_chip,
    resolve_workers,
    run_campaigns,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.snr import SnrExperimentResult, run_snr_experiment
from repro.experiments.euclidean import (
    EuclideanExperimentResult,
    run_euclidean_experiment,
)
from repro.experiments.fig4 import A2SpectrumResult, run_a2_spectrum
from repro.experiments.fig6 import (
    Fig6HistogramResult,
    Fig6SpectraResult,
    run_fig6_histograms,
    run_fig6_spectra,
)
from repro.experiments.baseline_power import (
    run_crosschip_study,
    run_power_baseline,
)
from repro.experiments.latency import run_detection_latency
from repro.experiments.localization import (
    ArrayLocalizationResult,
    run_array_localization,
    run_localization,
)
from repro.experiments.leakage import (
    run_fixed_vs_random_tvla,
    run_trojan_tvla,
)
from repro.experiments.result import RunResult, validate_payload
from repro.experiments.registry import (
    REGISTRY,
    ExperimentSpec,
    RunContext,
    all_specs,
    get_spec,
    run_experiment,
    validate_artifact,
)

__all__ = [
    "CAMPAIGN_PLANNERS",
    "DEFAULT_KEY",
    "calibrated",
    "clear_campaign_caches",
    "collect_ed_traces",
    "collect_spectral_record",
    "get_or_fit_detector",
    "get_or_generate_campaigns",
    "get_or_generate_traces",
    "shared_array_chip",
    "shared_chip",
    "CampaignSpec",
    "campaign_spec",
    "register_chip",
    "resolve_workers",
    "run_campaigns",
    "Table1Result",
    "run_table1",
    "SnrExperimentResult",
    "run_snr_experiment",
    "EuclideanExperimentResult",
    "run_euclidean_experiment",
    "A2SpectrumResult",
    "run_a2_spectrum",
    "Fig6HistogramResult",
    "Fig6SpectraResult",
    "run_fig6_histograms",
    "run_fig6_spectra",
    "run_crosschip_study",
    "run_power_baseline",
    "run_detection_latency",
    "ArrayLocalizationResult",
    "run_array_localization",
    "run_localization",
    "run_fixed_vs_random_tvla",
    "run_trojan_tvla",
    "RunResult",
    "validate_payload",
    "REGISTRY",
    "ExperimentSpec",
    "RunContext",
    "all_specs",
    "get_spec",
    "run_experiment",
    "validate_artifact",
]
