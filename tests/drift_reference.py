"""Batch reference for the streaming drift detector.

:class:`repro.lifecycle.drift.StreamingHistograms` and
:class:`~repro.lifecycle.drift.DriftDetector` keep per-feature
histograms incrementally.  The one-shot statistics here bin two whole
sample matrices against edges from the reference quantiles, with the
same primitives and the same ``>=`` rule on both sides, so the drift
tests can check the streaming counts and statistics against them.
"""

from __future__ import annotations

import numpy as np

from repro.lifecycle.drift import (
    bin_counts,
    bin_rows,
    ks_from_counts,
    psi_from_counts,
    quantile_edges,
)


def _counts(reference: np.ndarray, live: np.ndarray, n_bins: int):
    edges = quantile_edges(reference, n_bins)
    n_features = edges.shape[0]
    ref_counts = bin_counts(bin_rows(reference, edges), n_features, n_bins)
    live_counts = bin_counts(bin_rows(live, edges), n_features, n_bins)
    return ref_counts, live_counts


def batch_psi(
    reference: np.ndarray, live: np.ndarray, n_bins: int = 10
) -> np.ndarray:
    """One-shot per-feature PSI between two raw sample matrices."""
    return psi_from_counts(*_counts(reference, live, n_bins))


def batch_ks(
    reference: np.ndarray, live: np.ndarray, n_bins: int = 10
) -> np.ndarray:
    """One-shot per-feature binned KS between two raw sample matrices."""
    return ks_from_counts(*_counts(reference, live, n_bins))
