"""Tests for the experiment drivers (fast, reduced sizes)."""

import numpy as np
import pytest
from scipy import signal

from repro.experiments.campaign import (
    ED_DECIMATE,
    ED_PERIOD,
    WARMUP_WINDOWS,
    collect_ed_traces,
    collect_spectral_record,
    segment_ed_windows,
)
from repro.experiments.euclidean import run_euclidean_experiment
from repro.experiments.fig4 import run_a2_spectrum
from repro.experiments.fig6 import run_fig6_histograms, run_fig6_spectra
from repro.experiments.snr import run_snr_experiment
from repro.experiments.table1 import run_table1


def test_collect_ed_traces_shapes(chip, sim_scenario):
    traces = collect_ed_traces(chip, sim_scenario, 40, batch=16)
    spc = chip.config.samples_per_cycle
    for name in ("sensor", "probe"):
        assert traces[name].shape == (40, 12 * spc // 12)


def test_collect_ed_traces_no_decimation(chip, sim_scenario):
    traces = collect_ed_traces(
        chip, sim_scenario, 8, batch=8, decimate=1, receivers=("sensor",)
    )
    assert traces["sensor"].shape == (8, 12 * chip.config.samples_per_cycle)


@pytest.mark.parametrize("decimate", (2, 3, ED_DECIMATE))
def test_segment_ed_windows_matches_signal_decimate(decimate):
    """The cached filter design gives ``signal.decimate``'s exact bytes."""
    spc, batch, n_traces = 24, 3, 7
    n_samples = (-(-n_traces // batch) + WARMUP_WINDOWS) * ED_PERIOD * spc
    rec = np.random.default_rng(decimate).normal(size=(batch, n_samples))
    got = segment_ed_windows(
        rec, batch=batch, n_traces=n_traces, spc=spc, decimate=decimate
    )
    ref = segment_ed_windows(
        signal.decimate(rec, decimate, axis=1, zero_phase=True),
        batch=batch, n_traces=n_traces, spc=spc // decimate, decimate=1,
    )
    assert got.shape == (n_traces, ED_PERIOD * spc // decimate)
    assert np.array_equal(got, ref)


def test_collect_spectral_record_shape(chip, sim_scenario):
    rec = collect_spectral_record(
        chip, sim_scenario, 128, receivers=("sensor",), batch=2
    )
    assert rec["sensor"].shape == (2, 129 * chip.config.samples_per_cycle)


def test_table1_driver(chip):
    result = run_table1(chip)
    assert {r.circuit for r in result.rows} == {
        "aes", "trojan1", "trojan2", "trojan3", "trojan4", "a2",
    }
    assert "Gate Count" in result.format()


def test_snr_driver_structure(chip, sim_scenario):
    result = run_snr_experiment(chip, sim_scenario, n_cycles=128, batch=4)
    assert set(result.per_receiver) == {"sensor", "probe"}
    assert "paper" in result.format()
    assert (
        result.per_receiver["sensor"].snr_db
        > result.per_receiver["probe"].snr_db
    )


def test_euclidean_driver_small(chip, sim_scenario):
    result = run_euclidean_experiment(
        chip,
        sim_scenario,
        n_golden=128,
        n_suspect=64,
        trojans=("trojan4",),
    )
    assert result.separations["trojan4"] > 0
    assert result.reports["trojan4"].detected
    assert "EDth" in result.format()


def test_fig4_driver_small(chip, sim_scenario):
    result = run_a2_spectrum(chip, sim_scenario, n_cycles=768)
    assert result.trigger_frequency == pytest.approx(chip.config.f_clk / 3)
    assert result.magnitude_ratio_at_trigger() > 1.2
    assert "MHz" in result.format()


def test_fig6_histogram_driver_small(chip, sil_scenario):
    result = run_fig6_histograms(
        chip,
        sil_scenario,
        "sensor",
        n_golden=96,
        n_suspect=96,
        trojans=("trojan4",),
    )
    panel = result.panels["trojan4"]
    assert panel.histogram.golden_counts.sum() == 96
    assert 0 <= panel.overlap <= 1
    assert "trojan4" in result.format()


def test_fig6_spectra_driver_small(chip, sil_scenario):
    result = run_fig6_spectra(
        chip, sil_scenario, n_cycles=512, trojans=("trojan1", "trojan3")
    )
    assert set(result.panels) == {"trojan1", "trojan3"}
    t1 = result.panels["trojan1"]
    assert t1.low_freq_energy_ratio > 1.0
    assert "trojan1" in result.format()
