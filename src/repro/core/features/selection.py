"""Feature-reduction steps (paper section 3.3.4).

Two alternatives plus a final cleanup:

- :class:`RandomForestFilter` -- train a random forest on each
  training run (dataset) separately, rank features by impurity
  importance, and keep the *union* of each run's top-30 (features
  below the top 30 carry weight < 1/#features).  The paper's union is
  117 features.
- :class:`PCAReducer` -- project onto principal components (the paper
  keeps 50 components / 99.99% of variance); resulting features are
  latent and lose physical interpretability.
- :class:`VarianceFilter` -- drop zero-variance columns (they carry no
  information and break standardisation downstream).

:meth:`RandomForestFilter.fit_blocks` ranks each run on a row block
that the caller builds on demand, so an input far wider than the
filter's output (the pipeline's interaction products) never exists as
one matrix; ``fit`` hands it row blocks of a given matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.meta import FeatureMeta
from repro.ml.decomposition import PCA
from repro.ml.forest import RandomForestClassifier

__all__ = ["RandomForestFilter", "PCAReducer", "VarianceFilter"]


class RandomForestFilter:
    """Keep the union of per-run top-k features by forest importance.

    Parameters
    ----------
    top_k:
        Features kept per training run (paper: 30).
    per_group:
        When True (paper behaviour) one forest is trained per group
        (training run) and the union of top-k sets is kept; when False
        a single forest ranks features globally.
    importance_floor:
        Additional cut: features whose importance is below
        ``importance_floor / n_features`` are not kept even inside the
        top-k (the paper notes everything below the top 30 fell under
        weight 1/#features).
    n_estimators, max_depth, random_state:
        Forest configuration for the ranking model; modest defaults
        keep the filter fast without changing the ranking materially.
    """

    def __init__(
        self,
        top_k: int = 30,
        per_group: bool = True,
        importance_floor: float = 0.0,
        n_estimators: int = 30,
        max_depth: int | None = 12,
        random_state=0,
    ):
        self.top_k = top_k
        self.per_group = per_group
        self.importance_floor = importance_floor
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.random_state = random_state

    def _rank_one(self, block, rows, y: np.ndarray) -> np.ndarray:
        """Indices of the top-k features for the run at ``rows``."""
        y = y[rows]
        if len(np.unique(y)) < 2:
            return np.array([], dtype=np.int64)  # unlabeled-variance run
        X = block(rows)
        forest = RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            random_state=self.random_state,
        )
        forest.fit(X, y)
        importances = forest.feature_importances_
        order = np.argsort(importances)[::-1][: self.top_k]
        floor = self.importance_floor / max(X.shape[1], 1)
        return order[importances[order] > floor]

    def fit(
        self,
        X: np.ndarray,
        meta: list[FeatureMeta],
        y: np.ndarray,
        groups: np.ndarray | None = None,
    ) -> "RandomForestFilter":
        return self.fit_blocks(lambda rows: X[rows], meta, y, groups)

    def fit_blocks(
        self,
        block,
        meta: list[FeatureMeta],
        y: np.ndarray,
        groups: np.ndarray | None = None,
    ) -> "RandomForestFilter":
        """Fit on an input matrix given by its row blocks.

        ``block(rows)`` returns the rows ``rows`` (a boolean mask, or
        ``slice(None)`` for all) of the matrix ``meta`` describes, so a
        caller can build each run's rows on demand instead of holding
        the whole matrix.  Only runs with both classes are built.
        """
        if y is None:
            raise ValueError("RandomForestFilter is supervised; y is required.")
        y = np.asarray(y)
        selected: set[int] = set()
        if self.per_group and groups is not None:
            groups = np.asarray(groups)
            for group in np.unique(groups):
                selected.update(self._rank_one(block, groups == group, y).tolist())
        else:
            selected.update(self._rank_one(block, slice(None), y).tolist())
        if not selected:
            # Pathological input (every run single-class): keep everything
            # rather than emit an empty matrix.
            selected = set(range(len(meta)))
        self.selected_ = np.asarray(sorted(selected), dtype=np.int64)
        self.n_features_in_ = len(meta)
        return self

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "selected_"):
            raise RuntimeError("RandomForestFilter must be fitted first.")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns; filter was fitted with "
                f"{self.n_features_in_}."
            )
        return X[:, self.selected_], [meta[i] for i in self.selected_]

    def fit_transform(self, X, meta, y, groups=None):
        return self.fit(X, meta, y, groups).transform(X, meta)


class PCAReducer:
    """PCA projection; output features become latent components."""

    def __init__(self, n_components=0.9999, max_components: int = 50):
        self.n_components = n_components
        self.max_components = max_components

    def fit(self, X: np.ndarray, meta: list[FeatureMeta], y=None, groups=None) -> "PCAReducer":
        self.pca_ = PCA(n_components=self.n_components).fit(X)
        self.keep_ = min(self.pca_.n_components_, self.max_components)
        self.n_features_in_ = len(meta)
        return self

    def project(self, X: np.ndarray) -> np.ndarray:
        """The first ``keep_`` principal components of ``X``'s rows."""
        if not hasattr(self, "pca_"):
            raise RuntimeError("PCAReducer must be fitted first.")
        return self.pca_.transform(X)[:, : self.keep_]

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        projected = self.project(X)
        new_meta = [FeatureMeta.latent(i) for i in range(self.keep_)]
        return projected, new_meta

    def fit_transform(self, X, meta, y=None, groups=None):
        return self.fit(X, meta, y, groups).transform(X, meta)


class VarianceFilter:
    """Drop columns whose training variance is (numerically) zero."""

    def __init__(self, threshold: float = 0.0):
        self.threshold = threshold

    def fit(self, X: np.ndarray, meta: list[FeatureMeta], y=None, groups=None) -> "VarianceFilter":
        variances = X.var(axis=0)
        self.selected_ = np.flatnonzero(variances > self.threshold)
        if self.selected_.size == 0:
            raise ValueError("All features have zero variance; nothing to keep.")
        self.n_features_in_ = len(meta)
        return self

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "selected_"):
            raise RuntimeError("VarianceFilter must be fitted first.")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns; filter was fitted with "
                f"{self.n_features_in_}."
            )
        return X[:, self.selected_], [meta[i] for i in self.selected_]

    def fit_transform(self, X, meta, y=None, groups=None):
        return self.fit(X, meta, y, groups).transform(X, meta)
