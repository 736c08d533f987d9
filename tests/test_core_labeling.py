"""Tests for Kneedle labeling (paper section 2.2)."""

import numpy as np
import pytest

from repro.core.labeling import MARGIN, KneedleLabeler, kneedle, savitzky_golay


def saturation_curve(knee=700.0, top=1000.0, n=300, noise=0.0, seed=0):
    """Throughput curve rising linearly then flat at `knee`."""
    load = np.linspace(1.0, top, n)
    kpi = np.minimum(load, knee)
    if noise:
        kpi = kpi + np.random.default_rng(seed).normal(0, noise, n)
    return load, kpi


class TestSavitzkyGolay:
    def test_smooths_noise(self, rng):
        signal = np.sin(np.linspace(0, 4, 200))
        noisy = signal + rng.normal(0, 0.2, 200)
        smoothed = savitzky_golay(noisy)
        assert np.mean((smoothed - signal) ** 2) < np.mean((noisy - signal) ** 2)

    def test_short_series_passthrough(self):
        values = np.array([1.0, 2.0])
        assert np.array_equal(savitzky_golay(values), values)

    def test_window_clipped_to_length(self):
        values = np.linspace(0, 1, 7)  # shorter than the 21-point window
        smoothed = savitzky_golay(values)
        assert smoothed.shape == values.shape

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            savitzky_golay(np.zeros((3, 3)))


class TestKneedle:
    def test_finds_knee_of_clean_curve(self):
        load, kpi = saturation_curve()
        result = kneedle(load, kpi)
        assert abs(result.knee_x - 700.0) < 40.0

    def test_finds_knee_under_noise(self):
        load, kpi = saturation_curve(noise=15.0)
        result = kneedle(load, kpi)
        assert abs(result.knee_x - 700.0) < 60.0

    def test_knee_y_close_to_capacity(self):
        load, kpi = saturation_curve()
        result = kneedle(load, kpi)
        assert abs(result.knee_y - 700.0) < 40.0

    def test_knee_is_the_highest_candidate(self):
        load, kpi = saturation_curve(noise=10.0)
        result = kneedle(load, kpi)
        assert result.knee_index in result.candidates
        assert result.difference[result.knee_index] == np.max(
            result.difference[result.candidates]
        )

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="5 points"):
            kneedle(np.arange(3), np.arange(3))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            kneedle(np.arange(10), np.arange(9))

    def test_linear_curve_falls_back(self):
        load = np.linspace(0, 1, 50)
        result = kneedle(load, load.copy())
        assert 0 <= result.knee_index < 50  # no crash on kneeless input


class TestKneedleLabeler:
    def test_labels_split_at_threshold(self):
        load, kpi = saturation_curve()
        labeler = KneedleLabeler().fit(load, kpi)
        labels = labeler.label(np.array([100.0, 690.0, 710.0, 900.0]))
        assert labels[0] == 0 and labels[-1] == 1

    def test_margin_moves_threshold_down(self):
        load, kpi = saturation_curve()
        labeler = KneedleLabeler().fit(load, kpi)
        assert labeler.threshold_ == labeler.knee_.knee_y * (1.0 - MARGIN)
        assert labeler.threshold_ < labeler.knee_.knee_y

    def test_capacity_pinned_kpi_labeled_saturated(self):
        """The reason the margin exists: a saturated service reports
        throughput == capacity, which must land on the saturated side."""
        load, kpi = saturation_curve(noise=5.0)
        labeler = KneedleLabeler().fit(load, kpi)
        pinned = np.full(50, 700.0)
        assert labeler.label(pinned).mean() > 0.9

    def test_label_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            KneedleLabeler().label(np.zeros(3))

    def test_fit_label_shortcut(self):
        load, kpi = saturation_curve()
        labels = KneedleLabeler().fit_label(load, kpi)
        assert labels.shape == kpi.shape
        assert set(np.unique(labels)) <= {0, 1}
