"""Tests for the ablation drivers (reduced sizes for speed)."""

from repro.experiments.ablation import (
    sweep_pca_dimensions,
    threshold_study,
)


def test_pca_sweep_returns_all_depths(chip, sim_scenario):
    points = sweep_pca_dimensions(
        chip,
        sim_scenario,
        trojan="trojan4",
        depths=(None, 4),
        n_golden=96,
        n_suspect=64,
    )
    assert [p.n_components for p in points] == [None, 4]
    for p in points:
        assert 0.0 <= p.auc <= 1.0
        assert p.separation >= 0.0
    # The loud Trojan is detectable with and without PCA.
    assert points[0].auc > 0.8


def test_threshold_study_rules(chip, sim_scenario):
    points = threshold_study(
        chip, sim_scenario, trojan="trojan4", n_golden=96, n_suspect=64
    )
    rules = [p.rule for p in points]
    assert rules == ["eq1-max", "p90", "p95", "p99"]
    by_rule = {p.rule: p for p in points}
    # Eq. (1) uses the max golden distance: zero FPR on its own data.
    assert by_rule["eq1-max"].false_positive_rate == 0.0
    # Thresholds decrease from eq1-max to p90.
    assert by_rule["p90"].threshold < by_rule["eq1-max"].threshold
    # Lower thresholds can only increase both rates.
    assert (
        by_rule["p90"].true_positive_rate
        >= by_rule["p99"].true_positive_rate
    )
