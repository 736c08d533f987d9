"""The materializing reference for :class:`MonitorlessPipeline`.

The pipeline computes an interaction product only where a step reads
it: a filter second reduction ranks each run on that run's own
products and then computes the kept columns alone.  This module fits
the public steps in the paper's order on the full matrices instead:
every product of the whole input (one gather and one ``hstack``, as
the pipeline did before), a second reduction fitted on that matrix
with its own ``fit``/``transform``, then the variance filter.  The
differential tests compare the two byte for byte, fitted pipelines
included (``model_fingerprint``).
"""

from __future__ import annotations

import numpy as np

from repro.core.features.binary import BinaryLevelFeatures
from repro.core.features.interactions import InteractionFeatures
from repro.core.features.pipeline import MonitorlessPipeline
from repro.core.features.scaling import LogScaler
from repro.core.features.selection import (
    PCAReducer,
    RandomForestFilter,
    VarianceFilter,
)
from repro.core.features.temporal import TemporalFeatures
from repro.ml.preprocessing import StandardScaler


def all_products(interactions: InteractionFeatures, X, meta):
    """The full post-interaction matrix and its meta."""
    if not interactions.pairs_:
        return X, list(meta)
    left = np.asarray([i for i, _ in interactions.pairs_])
    right = np.asarray([j for _, j in interactions.pairs_])
    products = X[:, left] * X[:, right]
    return np.hstack([X, products]), list(meta) + interactions.product_meta_


def _reduction(kind, pipeline: MonitorlessPipeline):
    if kind == "filter":
        return RandomForestFilter(
            top_k=pipeline.config.filter_top_k,
            random_state=pipeline.random_state,
        )
    if kind == "pca":
        return PCAReducer(n_components=pipeline.config.pca_components)
    return None


def reference_fit_transform(config, X, meta, y, groups=None, random_state=0):
    """``(pipeline, X_out, meta_out)``: a pipeline fitted step by step.

    The returned pipeline carries the same attributes, set in the same
    order, as one fitted by ``MonitorlessPipeline.fit_transform``.
    """
    pipeline = MonitorlessPipeline(config, random_state=random_state)
    X = np.asarray(X, dtype=np.float64)
    meta = list(meta)
    pipeline.binary_ = BinaryLevelFeatures()
    X, meta = pipeline.binary_.fit_transform(X, meta, y)
    pipeline.log_ = LogScaler()
    X, meta = pipeline.log_.fit_transform(X, meta, y)
    pipeline.scaler_ = StandardScaler() if config.normalize else None
    if pipeline.scaler_ is not None:
        X = pipeline.scaler_.fit_transform(X)
    pipeline.reduction1_ = _reduction(config.reduction1, pipeline)
    if pipeline.reduction1_ is not None:
        X, meta = pipeline.reduction1_.fit_transform(X, meta, y, groups)
    pipeline.temporal_ = (
        TemporalFeatures(windows=config.temporal_windows)
        if config.temporal else None
    )
    if pipeline.temporal_ is not None:
        X, meta = pipeline.temporal_.fit_transform(X, meta, y, groups)
    pipeline.interactions_ = (
        InteractionFeatures().fit(X, meta, y) if config.interactions else None
    )
    if pipeline.interactions_ is not None:
        X, meta = all_products(pipeline.interactions_, X, meta)
    pipeline.reduction2_ = _reduction(config.reduction2, pipeline)
    if pipeline.reduction2_ is not None:
        X, meta = pipeline.reduction2_.fit_transform(X, meta, y, groups)
    pipeline.variance_ = VarianceFilter()
    X, meta = pipeline.variance_.fit_transform(X, meta, y)
    pipeline.output_meta_ = meta
    return pipeline, X, meta


def reference_transform(pipeline: MonitorlessPipeline, X, meta, groups=None):
    """A fitted pipeline's steps applied in order on full matrices."""
    X = np.asarray(X, dtype=np.float64)
    meta = list(meta)
    X, meta = pipeline.binary_.transform(X, meta)
    X, meta = pipeline.log_.transform(X, meta)
    if pipeline.scaler_ is not None:
        X = pipeline.scaler_.transform(X)
    if pipeline.reduction1_ is not None:
        X, meta = pipeline.reduction1_.transform(X, meta)
    if pipeline.temporal_ is not None:
        X, meta = pipeline.temporal_.transform(X, meta, groups)
    if pipeline.interactions_ is not None:
        X, meta = all_products(pipeline.interactions_, X, meta)
    if pipeline.reduction2_ is not None:
        X, meta = pipeline.reduction2_.transform(X, meta)
    return pipeline.variance_.transform(X, meta)
