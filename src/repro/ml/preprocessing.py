"""Feature scalers used by the monitorless pipeline (paper section 3.3).

``MinMaxScaler`` additionally exposes :meth:`MinMaxScaler.coverage_gaps`,
implementing the training-set-improvement check of section 3.2.3: a
validation set whose feature ranges fall outside the fitted scaler's
range reveals insufficiently-trained features.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_is_fitted

__all__ = ["MinMaxScaler", "StandardScaler"]


class MinMaxScaler(BaseEstimator):
    """Scale each feature to ``feature_range`` based on training min/max."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        if feature_range[0] >= feature_range[1]:
            raise ValueError("feature_range minimum must be below maximum.")
        self.feature_range = feature_range

    def fit(self, X, y=None) -> "MinMaxScaler":
        X = check_array(X)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        span = self.data_max_ - self.data_min_
        # Constant features map to the range minimum instead of dividing by 0.
        span[span == 0.0] = 1.0
        self.span_ = span
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "span_")
        X = check_array(X)
        if X.shape[1] != self.span_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features; scaler was fitted with "
                f"{self.span_.shape[0]}."
            )
        low, high = self.feature_range
        # Subtract-then-divide: the pre-multiplied ``1/span`` form
        # overflows to inf for subnormal spans and poisons the output
        # with NaN.  Monotonic rounding of (X - min) / span keeps
        # training values inside [low, high] without clipping.
        return (X - self.data_min_) / self.span_ * (high - low) + low

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, "span_")
        X = check_array(X)
        low, high = self.feature_range
        return (X - low) / (high - low) * self.span_ + self.data_min_

    def coverage_gaps(self, X_validation, *, tolerance: float = 0.0) -> np.ndarray:
        """Indices of features whose validation range exceeds the fitted range.

        Section 3.2.3 of the paper: scale a validation set with the
        *trained* scaler; any feature with values outside the training
        range was not sufficiently covered by the training campaign and
        is a candidate for additional measurement runs.
        """
        check_is_fitted(self, "span_")
        X_validation = check_array(X_validation)
        too_low = X_validation.min(axis=0) < self.data_min_ - tolerance
        too_high = X_validation.max(axis=0) > self.data_max_ + tolerance
        return np.flatnonzero(too_low | too_high)


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance."""

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            std = X.std(axis=0)
            std[std == 0.0] = 1.0  # constant features pass through unscaled
            self.std_ = std
        else:
            self.std_ = np.ones(X.shape[1])
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "std_")
        X = check_array(X)
        if X.shape[1] != self.std_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features; scaler was fitted with "
                f"{self.std_.shape[0]}."
            )
        return (X - self.mean_) / self.std_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, "std_")
        X = check_array(X)
        return X * self.std_ + self.mean_
