"""Tests for the TVLA Welch t-test."""

import numpy as np
import pytest

from repro.analysis.tvla import TVLA_THRESHOLD, welch_t_test
from repro.errors import AnalysisError


def test_identical_populations_pass(rng):
    a = rng.normal(size=(500, 40))
    b = rng.normal(size=(500, 40))
    result = welch_t_test(a, b)
    assert not result.leaks
    assert result.max_abs_t < TVLA_THRESHOLD
    assert "passes" in result.format()


def test_mean_shift_detected(rng):
    a = rng.normal(size=(500, 40))
    b = rng.normal(size=(500, 40))
    b[:, 7] += 1.0
    result = welch_t_test(a, b)
    assert result.leaks
    assert result.leaky_samples >= 1
    assert int(np.argmax(np.abs(result.t_values))) == 7
    assert "LEAKS" in result.format()


def test_t_statistic_magnitude(rng):
    """t ~ shift / sqrt(2/n) for equal-size unit-variance groups."""
    n = 2000
    a = rng.normal(size=(n, 1))
    b = rng.normal(size=(n, 1)) + 0.5
    result = welch_t_test(a, b)
    expected = 0.5 / np.sqrt(2.0 / n)
    assert abs(result.t_values[0]) == pytest.approx(expected, rel=0.2)


def test_unequal_population_sizes_ok(rng):
    a = rng.normal(size=(100, 10))
    b = rng.normal(size=(400, 10))
    assert not welch_t_test(a, b).leaks


def test_validation(rng):
    with pytest.raises(AnalysisError):
        welch_t_test(rng.normal(size=(10, 5)), rng.normal(size=(10, 6)))
    with pytest.raises(AnalysisError):
        welch_t_test(rng.normal(size=(1, 5)), rng.normal(size=(10, 5)))


def test_constant_sample_does_not_crash(rng):
    a = np.zeros((50, 3))
    b = np.zeros((50, 3))
    result = welch_t_test(a, b)
    assert not result.leaks
