"""Logarithmic scaling of byte-valued metrics (paper section 3.3.2).

Byte-valued metrics without a known maximum (e.g. bytes read from an
I/O device) cannot be converted to a relative scale.  To emphasise
magnitude over exact value -- and so reduce dependence on the training
hardware -- the paper transforms them to a logarithmic scale.  We use
``log1p`` (log(1+x)) so that zero stays zero and negative rates (which
should not occur, but robustness is cheap) are clamped.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.meta import FeatureMeta

__all__ = ["LogScaler", "log_scale"]


def log_scale(values: np.ndarray) -> np.ndarray:
    """The step's rule for byte-valued columns: ``log1p`` of the values
    clamped at 0."""
    return np.log1p(np.maximum(values, 0.0))


class LogScaler:
    """Apply ``log1p`` in place to every ``bytes_like`` column."""

    def fit(self, X: np.ndarray, meta: list[FeatureMeta], y=None) -> "LogScaler":
        self.columns_ = [
            index for index, feature in enumerate(meta) if feature.bytes_like
        ]
        self.n_features_in_ = len(meta)
        return self

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "columns_"):
            raise RuntimeError("LogScaler must be fitted first.")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns; step was fitted with "
                f"{self.n_features_in_}."
            )
        if not self.columns_:
            return X, list(meta)
        X = X.copy()
        cols = np.asarray(self.columns_)
        X[:, cols] = log_scale(X[:, cols])
        new_meta = list(meta)
        for index in self.columns_:
            new_meta[index] = new_meta[index].derived("-LOG", bytes_like=False)
        return X, new_meta

    def fit_transform(self, X, meta, y=None):
        return self.fit(X, meta, y).transform(X, meta)
