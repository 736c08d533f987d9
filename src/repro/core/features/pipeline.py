"""The ordered feature-engineering pipeline and its grid search
(paper section 3.3.7).

Steps, in the paper's order:

1. create binary level features and log-scale byte-valued features
   (always on);
2. normalize (StandardScaler) -- optional;
3. first reduction: random-forest filter, PCA, or none;
4. create time-dependent (AVG/LAG) and multiplicative features --
   each optional;
5. second reduction: filter, PCA, or none;
6. remove zero-variance features (always on).

The combination *no first reduction + multiplicative features* is
rejected, as in the paper, because it explodes the feature count
(1040 raw metrics would yield ~500k products).

Even after a first reduction the products dominate (17 615 of the
training corpus's 19 183 step-5 columns), so they exist only where a
step reads them.  With a filter second reduction, ``fit_transform``
ranks each run on a block of that run's rows and products, and both
``fit_transform`` and ``transform`` compute only the kept columns
(:meth:`InteractionFeatures.columns`).  A PCA second reduction, or
none, reads every product and gets the full matrix from
:meth:`InteractionFeatures.transform`.

:func:`grid_search_pipeline` evaluates each admissible configuration
with grouped cross-validation using a random-forest scorer, mirroring
how the paper picked its pipeline configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.features.binary import BinaryLevelFeatures
from repro.core.features.interactions import InteractionFeatures
from repro.core.features.meta import FeatureMeta
from repro.core.features.scaling import LogScaler
from repro.core.features.selection import PCAReducer, RandomForestFilter, VarianceFilter
from repro.core.features.temporal import TemporalFeatures
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import f1_score
from repro.ml.model_selection import GroupKFold, KFold
from repro.ml.preprocessing import StandardScaler

__all__ = [
    "PipelineConfig",
    "MonitorlessPipeline",
    "grid_search_pipeline",
]

_REDUCTIONS = (None, "filter", "pca")


@dataclass(frozen=True)
class PipelineConfig:
    """Switches for the optional pipeline steps.

    The paper's selected configuration is the default: normalize,
    filter, temporal + interactions, filter again.
    """

    normalize: bool = True
    reduction1: str | None = "filter"
    temporal: bool = True
    interactions: bool = True
    reduction2: str | None = "filter"
    temporal_windows: tuple[int, ...] = (1, 5, 15)
    filter_top_k: int = 30
    pca_components: float = 0.9999

    def __post_init__(self):
        if self.reduction1 not in _REDUCTIONS or self.reduction2 not in _REDUCTIONS:
            raise ValueError("Reductions must be None, 'filter' or 'pca'.")
        if self.interactions and self.reduction1 is None:
            raise ValueError(
                "interactions without a first reduction step is practically "
                "unfeasible (exponential feature blow-up); the paper excludes "
                "this combination from its grid."
            )

    def describe(self) -> str:
        """Short config label for logs and benchmark rows."""
        parts = [
            "norm" if self.normalize else "raw",
            self.reduction1 or "none",
            "+".join(
                name
                for flag, name in ((self.temporal, "time"), (self.interactions, "mult"))
                if flag
            )
            or "none",
            self.reduction2 or "none",
        ]
        return "/".join(parts)


def admissible_configs(
    *,
    temporal_windows: tuple[int, ...] = (1, 5, 15),
    filter_top_k: int = 30,
) -> list[PipelineConfig]:
    """Every admissible combination of the optional steps (paper grid)."""
    configs = []
    for normalize in (False, True):
        for reduction1 in _REDUCTIONS:
            for temporal in (False, True):
                for interactions in (False, True):
                    if interactions and reduction1 is None:
                        continue
                    for reduction2 in _REDUCTIONS:
                        configs.append(
                            PipelineConfig(
                                normalize=normalize,
                                reduction1=reduction1,
                                temporal=temporal,
                                interactions=interactions,
                                reduction2=reduction2,
                                temporal_windows=temporal_windows,
                                filter_top_k=filter_top_k,
                            )
                        )
    return configs


class MonitorlessPipeline:
    """Fit/transform implementation of the six-step pipeline.

    ``fit_transform`` requires labels ``y`` (the RF filter is
    supervised) and per-sample ``groups`` (run ids) so that temporal
    windows never cross run boundaries and the filter can rank per run.
    """

    def __init__(self, config: PipelineConfig | None = None, random_state=0):
        self.config = config or PipelineConfig()
        self.random_state = random_state

    def _make_reduction(self, kind: str | None):
        if kind is None:
            return None
        if kind == "filter":
            return RandomForestFilter(
                top_k=self.config.filter_top_k, random_state=self.random_state
            )
        if kind == "pca":
            return PCAReducer(n_components=self.config.pca_components)
        raise ValueError(f"Unknown reduction: {kind!r}")

    def fit_transform(
        self,
        X: np.ndarray,
        meta: Sequence[FeatureMeta],
        y: np.ndarray,
        groups: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        X = np.asarray(X, dtype=np.float64)
        meta = list(meta)
        if X.shape[1] != len(meta):
            raise ValueError("meta must describe every column of X.")

        # Step 1: binary levels + log scaling.
        self.binary_ = BinaryLevelFeatures()
        X, meta = self.binary_.fit_transform(X, meta, y)
        self.log_ = LogScaler()
        X, meta = self.log_.fit_transform(X, meta, y)

        # Step 2: normalization.
        if self.config.normalize:
            self.scaler_ = StandardScaler()
            X = self.scaler_.fit_transform(X)
        else:
            self.scaler_ = None

        # Step 3: first reduction.
        self.reduction1_ = self._make_reduction(self.config.reduction1)
        if self.reduction1_ is not None:
            X, meta = self.reduction1_.fit_transform(X, meta, y, groups)

        # Step 4: temporal and multiplicative features.
        if self.config.temporal:
            self.temporal_ = TemporalFeatures(windows=self.config.temporal_windows)
            X, meta = self.temporal_.fit_transform(X, meta, y, groups)
        else:
            self.temporal_ = None
        if self.config.interactions:
            self.interactions_ = InteractionFeatures().fit(X, meta, y)
        else:
            self.interactions_ = None

        # Step 5: second reduction.  A filter ranks each run on that
        # run's own products and keeps their union; only the kept
        # products are then computed for the whole corpus.
        self.reduction2_ = self._make_reduction(self.config.reduction2)
        if self._selects_products():
            interactions = self.interactions_
            self.reduction2_.fit_blocks(
                lambda rows: interactions.transform(X[rows], meta)[0],
                meta + interactions.product_meta_, y, groups,
            )
            X, meta = self._selected_products(X, meta)
        else:
            if self.interactions_ is not None:
                X, meta = self.interactions_.transform(X, meta)
            if self.reduction2_ is not None:
                X, meta = self.reduction2_.fit_transform(X, meta, y, groups)

        # Step 6: zero-variance removal.
        self.variance_ = VarianceFilter()
        X, meta = self.variance_.fit_transform(X, meta, y)

        self.output_meta_ = meta
        return X, meta

    def transform(
        self,
        X: np.ndarray,
        meta: Sequence[FeatureMeta],
        groups: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "variance_"):
            raise RuntimeError("Pipeline must be fit_transform-ed first.")
        X = np.asarray(X, dtype=np.float64)
        meta = list(meta)
        if X.shape[1] != len(meta):
            raise ValueError("meta must describe every column of X.")
        with obs.trace("pipeline.transform"):
            X, meta = self.binary_.transform(X, meta)
            X, meta = self.log_.transform(X, meta)
            if self.scaler_ is not None:
                X = self.scaler_.transform(X)
            if self.reduction1_ is not None:
                X, meta = self.reduction1_.transform(X, meta)
            if self.temporal_ is not None:
                X, meta = self.temporal_.transform(X, meta, groups)
            if self._selects_products():
                X, meta = self._selected_products(X, meta)
            else:
                if self.interactions_ is not None:
                    X, meta = self.interactions_.transform(X, meta)
                if self.reduction2_ is not None:
                    X, meta = self.reduction2_.transform(X, meta)
            X, meta = self.variance_.transform(X, meta)
        obs.inc("pipeline.transform_rows", X.shape[0])
        return X, meta

    def _selects_products(self) -> bool:
        """Whether a filter picks step 5's columns among the products."""
        return self.interactions_ is not None and isinstance(
            self.reduction2_, RandomForestFilter
        )

    def _selected_products(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        """Steps 4-5 of a fitted filter pipeline: the kept columns only."""
        keep = self.reduction2_.selected_
        wide_meta = meta + self.interactions_.product_meta_
        return self.interactions_.columns(X, keep), [wide_meta[i] for i in keep]

    @property
    def feature_names_(self) -> list[str]:
        """Names of the output features after fitting."""
        if not hasattr(self, "output_meta_"):
            raise RuntimeError("Pipeline must be fit_transform-ed first.")
        return [feature.name for feature in self.output_meta_]


@dataclass
class PipelineSearchResult:
    """Score of one pipeline configuration in the grid search."""

    config: PipelineConfig
    mean_f1: float
    fold_f1: np.ndarray
    n_features: int


def grid_search_pipeline(
    X: np.ndarray,
    meta: Sequence[FeatureMeta],
    y: np.ndarray,
    groups: np.ndarray | None = None,
    *,
    configs: Iterable[PipelineConfig] | None = None,
    n_splits: int = 5,
    n_estimators: int = 30,
    random_state=0,
) -> list[PipelineSearchResult]:
    """Score pipeline configurations with grouped CV + random forest.

    Returns results sorted best-first.  The paper evaluates the steps
    with "a random forest algorithm with default parameters"; we use a
    smaller forest by default to keep the search tractable (the
    *ranking* of configurations is what matters).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    configs = list(configs) if configs is not None else admissible_configs()
    if groups is not None and len(np.unique(groups)) >= n_splits:
        splitter = GroupKFold(n_splits=n_splits)
    else:
        splitter = KFold(n_splits=n_splits, shuffle=True, random_state=random_state)

    results = []
    for config in configs:
        fold_scores = []
        n_features = 0
        for train_idx, valid_idx in splitter.split(X, y, groups):
            pipeline = MonitorlessPipeline(config, random_state=random_state)
            train_groups = None if groups is None else np.asarray(groups)[train_idx]
            valid_groups = None if groups is None else np.asarray(groups)[valid_idx]
            X_train, _ = pipeline.fit_transform(
                X[train_idx], meta, y[train_idx], train_groups
            )
            X_valid, _ = pipeline.transform(X[valid_idx], meta, valid_groups)
            n_features = X_train.shape[1]
            model = RandomForestClassifier(
                n_estimators=n_estimators, random_state=random_state
            )
            model.fit(X_train, y[train_idx])
            fold_scores.append(f1_score(y[valid_idx], model.predict(X_valid)))
        results.append(
            PipelineSearchResult(
                config=config,
                mean_f1=float(np.mean(fold_scores)),
                fold_f1=np.asarray(fold_scores),
                n_features=n_features,
            )
        )
    results.sort(key=lambda r: r.mean_f1, reverse=True)
    return results
