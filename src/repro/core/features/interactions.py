"""Multiplicative cross-domain features (paper section 3.3.6).

The paper multiplies all pairs of features from *different* resource
domains (e.g. a CPU feature with a network feature) -- this step turned
out to be crucial: nearly every top-30 feature in Table 4 is such a
product (``network.tcp.currestab x C-CPU-HIGH``, ...).  Time-dependent
features are excluded from pairing to bound the blow-up.

For latent (post-PCA) inputs there is no domain structure; all pairs
``i < j`` are formed up to ``max_pairs``.

The products can outnumber the rows by far (17 615 pairs on the
3 000-row training corpus), so they are computed only where a step
reads them: :meth:`InteractionFeatures.transform` fills one
preallocated ``(n, w + P)`` matrix (``w`` input columns, ``P`` pairs),
and :meth:`InteractionFeatures.columns` computes only the requested
columns of it.  Both compute feature-major, a block of pairs at a
time, and each product is one elementwise multiply, so any row block
or column subset is bitwise the same slice of the full matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.meta import Domain, FeatureMeta

__all__ = ["InteractionFeatures"]

#: Products per block of the product kernel (512 KiB of float64), so
#: each block's temporaries stay in cache.
_BLOCK_VALUES = 1 << 16


def _multiply_pairs(
    X: np.ndarray, left: np.ndarray, right: np.ndarray, out: np.ndarray
) -> None:
    """``out[:, k] = X[:, left[k]] * X[:, right[k]]`` for every ``k``.

    Gathers whole input columns as contiguous rows of ``X.T``; a
    transposed copy of ``X`` pays for itself once there are more
    products than input columns.
    """
    X_t = np.ascontiguousarray(X.T) if left.size > X.shape[1] else X.T
    step = max(1, _BLOCK_VALUES // max(X.shape[0], 1))
    for start in range(0, left.size, step):
        stop = start + step
        out[:, start:stop] = (X_t[left[start:stop]] * X_t[right[start:stop]]).T


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
        # The factor columns of each product; absent without pairs, so
        # a refit never keeps an earlier fit's products.
        if pairs:
            self._left_index = np.asarray([i for i, _ in pairs], dtype=np.int64)
            self._right_index = np.asarray([j for _, j in pairs], dtype=np.int64)
        else:
            self.__dict__.pop("_left_index", None)
            self.__dict__.pop("_right_index", None)
        return self

    def _check(self, X: np.ndarray) -> None:
        if not hasattr(self, "pairs_"):
            raise RuntimeError("InteractionFeatures must be fitted first.")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns; step was fitted with "
                f"{self.n_features_in_}."
            )

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        self._check(X)
        if not self.pairs_:
            return X, list(meta)
        width = X.shape[1]
        out = np.empty((X.shape[0], width + len(self.pairs_)))
        out[:, :width] = X
        _multiply_pairs(X, self._left_index, self._right_index, out[:, width:])
        return out, list(meta) + self.product_meta_

    def columns(self, X: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Columns ``keep`` (sorted) of ``transform(X)``; no other product."""
        self._check(X)
        keep = np.asarray(keep, dtype=np.int64)
        width = X.shape[1]
        n_plain = int(np.searchsorted(keep, width))
        out = np.empty((X.shape[0], keep.size))
        out[:, :n_plain] = X[:, keep[:n_plain]]
        if n_plain < keep.size:
            products = keep[n_plain:] - width
            _multiply_pairs(
                X, self._left_index[products], self._right_index[products],
                out[:, n_plain:],
            )
        return out

    def fit_transform(self, X, meta, y=None):
        return self.fit(X, meta, y).transform(X, meta)
