"""Time-dependent feature variants (paper section 3.3.5).

For every feature the paper adds ``X-AVG`` (mean over the last X+1
samples, current included) and ``X-LAG`` (value X samples ago) for
``X in {1, 5, 15}``, embedding 15 seconds of context into each
one-second snapshot.  Table 4 names these ``...-AVG4`` /
``...-LAGGED15`` style; we render ``-AVGk`` and ``-LAGGEDk``.

Windows never cross run boundaries: pass ``groups`` (one id per sample,
contiguous per run) and each run is warmed up independently -- the
first samples of a run see shortened windows / zero lag, exactly what
an online agent observes right after a container starts.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.meta import FeatureMeta

__all__ = ["TemporalFeatures", "rolling_average", "lagged"]


def _rolling_average_2d(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean along axis 0 of a (T, k) matrix, warm-up shortened."""
    n = values.shape[0]
    if window == 1 or n == 0:
        return values.copy()
    cumulative = np.cumsum(values, axis=0)
    index = np.arange(n)
    start = np.maximum(0, index - window + 1)
    before_start = np.where(
        (start > 0)[:, None], cumulative[start - 1], 0.0
    )
    averaged = (cumulative - before_start) / (index - start + 1)[:, None]
    # Cumulative-sum differencing accumulates rounding error with the
    # running total, which can push a window's mean outside the window's
    # own value range (visible as ``avg > max`` on long constant
    # series).  A mean is bounded by its window extremes, so clamp.
    lo = values.copy()
    hi = values.copy()
    for offset in range(1, min(window, n)):
        np.minimum(lo[offset:], values[: n - offset], out=lo[offset:])
        np.maximum(hi[offset:], values[: n - offset], out=hi[offset:])
    return np.clip(averaged, lo, hi)


def _lagged_2d(values: np.ndarray, lag: int) -> np.ndarray:
    """Shift along axis 0; warm-up repeats the first row."""
    n = values.shape[0]
    if lag == 0 or n == 0:
        return values.copy()
    result = np.empty_like(values)
    result[:lag] = values[0]
    result[lag:] = values[:-lag]
    return result


def rolling_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over ``window`` samples with warm-up shortening."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1.")
    if values.size == 0:
        return values.copy()
    return _rolling_average_2d(values[:, None], window)[:, 0]


def lagged(values: np.ndarray, lag: int) -> np.ndarray:
    """Series shifted by ``lag`` samples; warm-up repeats the first value."""
    values = np.asarray(values, dtype=np.float64)
    if lag < 0:
        raise ValueError("lag must be non-negative.")
    if values.size == 0:
        return values.copy()
    return _lagged_2d(values[:, None], lag)[:, 0]


def _group_slices(groups: np.ndarray | None, n: int) -> list[slice]:
    if groups is None:
        return [slice(0, n)]
    groups = np.asarray(groups)
    if groups.shape[0] != n:
        raise ValueError("groups must align with X.")
    slices = []
    start = 0
    for t in range(1, n + 1):
        if t == n or groups[t] != groups[start]:
            slices.append(slice(start, t))
            start = t
    return slices


class TemporalFeatures:
    """Append ``X-AVG`` / ``X-LAG`` columns for each non-binary feature.

    Parameters
    ----------
    windows:
        The X values; the paper uses (1, 5, 15).
    include_binary:
        The paper's Table 4 contains averaged binary features
        (``C-CPU-VERYHIGH-AVG14``), so binary columns are included by
        default.
    """

    def __init__(self, windows: tuple[int, ...] = (1, 5, 15), include_binary: bool = True):
        if any(w < 1 for w in windows):
            raise ValueError("All windows must be >= 1.")
        self.windows = tuple(windows)
        self.include_binary = include_binary

    def fit(self, X: np.ndarray, meta: list[FeatureMeta], y=None) -> "TemporalFeatures":
        self.columns_ = [
            index
            for index, feature in enumerate(meta)
            if not feature.temporal and (self.include_binary or not feature.binary)
        ]
        self.n_features_in_ = len(meta)
        # Output meta is a pure function of the input meta; build it once
        # (per-tick online transforms would otherwise spend their time
        # constructing dataclasses).
        derived: list[FeatureMeta] = []
        for x_value in self.windows:
            for index in self.columns_:
                derived.append(meta[index].derived(f"-AVG{x_value}", temporal=True))
            for index in self.columns_:
                derived.append(
                    meta[index].derived(f"-LAGGED{x_value}", temporal=True)
                )
        self.derived_meta_ = derived
        return self

    def transform(
        self,
        X: np.ndarray,
        meta: list[FeatureMeta],
        groups: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "columns_"):
            raise RuntimeError("TemporalFeatures must be fitted first.")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns; step was fitted with "
                f"{self.n_features_in_}."
            )
        if not self.columns_:
            return X, list(meta)
        slices = _group_slices(groups, X.shape[0])
        source = X[:, self.columns_]
        # One (T, k) pass per window per run keeps this vectorized even
        # in per-tick online prediction (tiny T, many columns).
        blocks: list[np.ndarray] = []
        for x_value in self.windows:
            averaged = np.empty_like(source)
            shifted = np.empty_like(source)
            for run in slices:
                averaged[run] = _rolling_average_2d(source[run], x_value + 1)
                shifted[run] = _lagged_2d(source[run], x_value)
            blocks.append(averaged)
            blocks.append(shifted)
        return np.hstack([X, *blocks]), list(meta) + self.derived_meta_

    def fit_transform(self, X, meta, y=None, groups=None):
        return self.fit(X, meta, y).transform(X, meta, groups)
