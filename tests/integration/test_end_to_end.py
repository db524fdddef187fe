"""End-to-end integration tests: the full paper pipeline.

These exercise netlist → placement → EM synthesis → analysis →
framework in one pass, using the shared session chip and the
SNR-calibrated scenarios.
"""

import pytest

from repro.analysis import EuclideanDetector
from repro.experiments.campaign import collect_ed_traces, collect_spectral_record
from repro.framework import RuntimeTrustEvaluator, Verdict
from repro.framework.evaluator import EvaluatorConfig


@pytest.fixture(scope="module")
def evaluator(chip, sim_scenario):
    return RuntimeTrustEvaluator.train(
        chip,
        sim_scenario,
        EvaluatorConfig(n_reference=256, spectral_cycles=1024),
    )


def test_dormant_chip_is_trusted(chip, sim_scenario, evaluator):
    clean = collect_ed_traces(
        chip, sim_scenario, 96, rng_role="e2e/clean"
    )["sensor"]
    report = evaluator.evaluate(traces=clean)
    assert report.verdict is Verdict.TRUSTED


@pytest.mark.parametrize("trojan", ["trojan1", "trojan2", "trojan4"])
def test_activated_trojans_raise_time_domain_alarm(
    chip, sim_scenario, evaluator, trojan
):
    dirty = collect_ed_traces(
        chip,
        sim_scenario,
        192,
        trojan_enables=(trojan,),
        rng_role=f"e2e/{trojan}",
    )["sensor"]
    report = evaluator.evaluate(traces=dirty)
    assert report.verdict.is_alarm, trojan


def test_trojan3_is_the_hardest(chip, sim_scenario):
    golden = collect_ed_traces(
        chip, sim_scenario, 384, receivers=("sensor",), rng_role="e2e/g3"
    )["sensor"]
    det = EuclideanDetector().fit(golden)
    seps = {}
    for trojan in ("trojan1", "trojan2", "trojan3", "trojan4"):
        suspect = collect_ed_traces(
            chip,
            sim_scenario,
            192,
            trojan_enables=(trojan,),
            receivers=("sensor",),
            rng_role=f"e2e/s3/{trojan}",
        )["sensor"]
        seps[trojan] = det.separation(suspect)
    assert seps["trojan3"] == min(seps.values())
    assert seps["trojan4"] == max(seps.values())


def test_a2_invisible_in_time_visible_in_frequency(chip, sim_scenario, evaluator):
    # Time domain: A2's six transistors leave no usable trace.
    dirty = collect_ed_traces(
        chip,
        sim_scenario,
        192,
        trojan_enables=("a2",),
        rng_role="e2e/a2",
    )["sensor"]
    time_report = evaluator.evaluate(traces=dirty)
    assert not time_report.verdict.is_alarm

    # Frequency domain: the gated trigger's comb stands out.
    from repro.experiments.fig4 import run_a2_spectrum

    result = run_a2_spectrum(chip, sim_scenario, n_cycles=1536)
    assert result.detected


def test_spectral_evaluation_path(chip, sim_scenario, evaluator):
    golden_rec = collect_spectral_record(
        chip,
        sim_scenario,
        1024,
        rng_role="framework/train-spec",  # replay the training record role
    )["sensor"]
    report = evaluator.evaluate_spectrum(golden_rec)
    assert not report.verdict.is_alarm


def test_sensor_beats_probe_on_trojan4_contrast(chip, sil_scenario):
    """Fig. 6's strongest panel: T4 separates on the sensor and blurs
    on the probe."""
    from repro.analysis.histogram import distance_histogram, histogram_overlap

    golden = collect_ed_traces(chip, sil_scenario, 400, rng_role="e2e/cg")
    suspect = collect_ed_traces(
        chip, sil_scenario, 400, trojan_enables=("trojan4",), rng_role="e2e/cs"
    )
    overlaps = {}
    for rcv in ("sensor", "probe"):
        det = EuclideanDetector().fit(golden[rcv])
        hist = distance_histogram(
            det.golden_distances, det.distances(suspect[rcv])
        )
        overlaps[rcv] = histogram_overlap(hist)
    assert overlaps["sensor"] < overlaps["probe"] + 0.25


def test_runtime_monitor_catches_mid_stream_activation(chip, sim_scenario, evaluator):
    from repro.framework import RuntimeMonitor

    monitor = RuntimeMonitor(evaluator, window=24, confirm=3)
    clean = collect_ed_traces(
        chip, sim_scenario, 96, rng_role="e2e/monclean"
    )["sensor"]
    dirty = collect_ed_traces(
        chip,
        sim_scenario,
        96,
        trojan_enables=("trojan4",),
        rng_role="e2e/mondirty",
    )["sensor"]
    assert monitor.observe_stream(clean) == []
    events = monitor.observe_stream(dirty)
    assert events, "monitor must alarm after the Trojan activates"
    assert events[0].window_index > 96
