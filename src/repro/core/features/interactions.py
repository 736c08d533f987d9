"""Multiplicative cross-domain features (paper section 3.3.6).

The paper multiplies all pairs of features from *different* resource
domains (e.g. a CPU feature with a network feature) -- this step turned
out to be crucial: nearly every top-30 feature in Table 4 is such a
product (``network.tcp.currestab x C-CPU-HIGH``, ...).  Time-dependent
features are excluded from pairing to bound the blow-up.

For latent (post-PCA) inputs there is no domain structure; all pairs
``i < j`` are formed up to ``max_pairs``.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.meta import Domain, FeatureMeta

__all__ = ["InteractionFeatures"]


class InteractionFeatures:
    """Append products of feature pairs from different domains.

    Parameters
    ----------
    max_pairs:
        Safety cap on the number of generated products; crossing it
        raises rather than silently truncating (a silent cap would make
        "we combined all pairs" a lie).
    """

    def __init__(self, max_pairs: int = 50_000):
        self.max_pairs = max_pairs

    def fit(self, X: np.ndarray, meta: list[FeatureMeta], y=None) -> "InteractionFeatures":
        eligible = [
            index for index, feature in enumerate(meta) if not feature.temporal
        ]
        pairs: list[tuple[int, int]] = []
        for position, i in enumerate(eligible):
            for j in eligible[position + 1 :]:
                if (
                    meta[i].domain != meta[j].domain
                    or meta[i].domain == Domain.LATENT
                ):
                    pairs.append((i, j))
        if len(pairs) > self.max_pairs:
            raise ValueError(
                f"Interaction step would create {len(pairs)} features "
                f"(cap {self.max_pairs}); apply a reduction step first, as "
                "the paper does (section 3.3.7)."
            )
        self.pairs_ = pairs
        self.n_features_in_ = len(meta)
        # Product meta built once at fit time (transform would otherwise
        # rebuild thousands of dataclasses per online prediction).
        self.product_meta_ = [
            FeatureMeta(
                name=f"{meta[i].name} x {meta[j].name}",
                domain=meta[i].domain,
                scope=meta[i].scope,
                interaction=True,
            )
            for i, j in pairs
        ]
        return self

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "pairs_"):
            raise RuntimeError("InteractionFeatures must be fitted first.")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns; step was fitted with "
                f"{self.n_features_in_}."
            )
        if not self.pairs_:
            return X, list(meta)
        if not hasattr(self, "_left_index"):
            self._left_index = np.asarray([i for i, _ in self.pairs_])
            self._right_index = np.asarray([j for _, j in self.pairs_])
        products = X[:, self._left_index] * X[:, self._right_index]
        return np.hstack([X, products]), list(meta) + self.product_meta_

    def fit_transform(self, X, meta, y=None):
        return self.fit(X, meta, y).transform(X, meta)
