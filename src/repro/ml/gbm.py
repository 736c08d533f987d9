"""Second-order gradient-boosted trees (XGBoost-style; Chen & Guestrin 2016).

Binary classification with logistic loss.  Each round fits a regression
tree to the first/second derivatives of the loss; splits maximize the
regularised gain

    gain = 1/2 * [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)] - gamma

and respect ``min_child_weight`` (minimum hessian mass per child) --
the exact semantics of the XGBoost parameters in the paper's Table-2
grid (``min_child_weight``, ``max_depth``, ``gamma``).

Every round grows through one recursion, ``_BoostTree._grow``, in
either training mode.  ``"exact"`` sorts each feature within the node
and puts the threshold at :func:`repro.ml.binning.midpoint` of the two
values around the best boundary; ``"hist"`` scores full-width
gradient/hessian bin histograms of a matrix binned once per fit, with
sibling subtraction, and takes the threshold from the bin edges.  A
fitted round keeps only its node arrays: the fit-time matrices and
histograms are dropped when it finishes growing.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_is_fitted,
    check_X_y,
)
from repro.ml.binning import Binner, midpoint
from repro.ml.flatforest import FlatTrees

__all__ = ["GradientBoostingClassifier"]

_LEAF = -1


class _BoostTree:
    """One regression tree fitted to (gradient, hessian) statistics.

    Exact and hist rounds grow through one recursion, :meth:`_grow`;
    they differ only in how a node finds its split.
    """

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        gamma: float,
        reg_lambda: float,
        max_leaves: int,
    ):
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.gamma = gamma
        self.reg_lambda = reg_lambda
        self.max_leaves = max_leaves
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_value: list[float] = []
        self._n_leaves = 0

    def fit(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray, bins=None
    ) -> None:
        """Grow on ``X``: raw values, or with ``bins`` the ``uint8`` codes.

        ``bins`` is ``(bin_edges, keys, starts)`` for a hist round:
        ``keys`` is the per-(sample, feature) flat bin key matrix
        ``starts[f] + codes[i, f]``, which the boosting loop computes
        once and reuses for every round.  Unlike the classification
        hist builder (which histograms only each node's candidate
        features), the GBM scores *every* feature at every node, so
        full-width G/H/count histograms pay off and enable the
        sibling-subtraction trick: only the smaller child of a split is
        re-scanned, the larger child's histogram is the parent's minus
        the sibling's.  The fit-time arrays are dropped after growth.
        """
        self._X, self._grad, self._hess, self._bins = X, grad, hess, bins
        self._grow(np.arange(X.shape[0]), depth=0, hists=None)
        del self._X, self._grad, self._hess, self._bins

    def _leaf(self, grad_sum: float, hess_sum: float) -> int:
        node = len(self.feature)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.leaf_value.append(-grad_sum / (hess_sum + self.reg_lambda))
        self._n_leaves += 1
        return node

    def _grow(self, indices: np.ndarray, depth: int, hists) -> int:
        """Grow the node ``indices``; ``hists`` is its G/H/count
        histograms when its parent derived them (hist rounds only)."""
        g_total = float(self._grad[indices].sum())
        h_total = float(self._hess[indices].sum())
        if (
            depth >= self.max_depth
            or indices.size < 2
            or self._n_leaves >= self.max_leaves - 1
        ):
            return self._leaf(g_total, h_total)

        if self._bins is None:
            split = self._best_split(indices, g_total, h_total)
        else:
            if hists is None:
                hists = self._node_hists(indices)
            split = self._best_split_hist(indices, hists, g_total, h_total)
        if split is None:
            return self._leaf(g_total, h_total)
        feature_idx, threshold, left_mask = split

        node = len(self.feature)
        self.feature.append(feature_idx)
        self.threshold.append(threshold)
        self.left.append(-2)
        self.right.append(-2)
        self.leaf_value.append(0.0)

        left_indices = indices[left_mask]
        right_indices = indices[~left_mask]
        left_hists, right_hists = self._child_hists(
            hists, left_indices, right_indices
        )
        del hists
        left_id = self._grow(left_indices, depth + 1, left_hists)
        left_hists = None
        right_id = self._grow(right_indices, depth + 1, right_hists)
        self.left[node] = left_id
        self.right[node] = right_id
        return node

    def _best_split(self, indices, g_total, h_total):
        parent_score = g_total * g_total / (h_total + self.reg_lambda)
        best_gain = 0.0
        best = None
        for feature_idx in range(self._X.shape[1]):
            column = self._X[indices, feature_idx]
            order = np.argsort(column, kind="quicksort")
            sorted_values = column[order]
            if sorted_values[0] == sorted_values[-1]:
                continue
            g_prefix = np.cumsum(self._grad[indices][order])
            h_prefix = np.cumsum(self._hess[indices][order])
            boundary = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
            if boundary.size == 0:
                continue
            g_left = g_prefix[boundary]
            h_left = h_prefix[boundary]
            g_right = g_total - g_left
            h_right = h_total - h_left
            valid = (h_left >= self.min_child_weight) & (
                h_right >= self.min_child_weight
            )
            if not np.any(valid):
                continue
            gains = 0.5 * (
                g_left**2 / (h_left + self.reg_lambda)
                + g_right**2 / (h_right + self.reg_lambda)
                - parent_score
            ) - self.gamma
            gains[~valid] = -np.inf
            local = int(np.argmax(gains))
            if gains[local] > best_gain:
                best_gain = float(gains[local])
                cut = boundary[local]
                threshold = float(
                    midpoint(sorted_values[cut], sorted_values[cut + 1])
                )
                best = (feature_idx, threshold, column <= threshold)
        return best

    # ------------------------------------------------------------------
    # Histogram-binned splits (tree_method="hist")
    # ------------------------------------------------------------------
    def _node_hists(self, indices: np.ndarray):
        _, keys, starts = self._bins
        flat = keys[indices].ravel()
        n_features = keys.shape[1]
        total_bins = int(starts[-1])
        g_hist = np.bincount(
            flat,
            weights=np.repeat(self._grad[indices], n_features),
            minlength=total_bins,
        )
        h_hist = np.bincount(
            flat,
            weights=np.repeat(self._hess[indices], n_features),
            minlength=total_bins,
        )
        n_hist = np.bincount(flat, minlength=total_bins)
        return g_hist, h_hist, n_hist

    def _child_hists(self, hists, left_indices, right_indices):
        """Both children's histograms by sibling subtraction, or Nones.

        Subtraction runs only when re-scanning the smaller child would
        cost more than the subtraction itself (n_small x n_features vs
        total_bins array ops); below that cutoff each child cheaply
        rebuilds its own histogram on demand, which also keeps live
        histogram memory bounded: an ancestor only holds histograms for
        splits whose *smaller* side exceeded total_bins / n_features
        samples, and node size shrinks by at least that much at every
        such level.  Exact rounds (no ``hists``) always get Nones.
        """
        if hists is None:
            return None, None
        _, keys, starts = self._bins
        if min(left_indices.size, right_indices.size) * keys.shape[1] <= int(
            starts[-1]
        ):
            return None, None
        if left_indices.size <= right_indices.size:
            left_hists = self._node_hists(left_indices)
            return left_hists, tuple(p - c for p, c in zip(hists, left_hists))
        right_hists = self._node_hists(right_indices)
        return tuple(p - c for p, c in zip(hists, right_hists)), right_hists

    def _best_split_hist(self, indices, hists, g_total, h_total):
        g_hist, h_hist, n_hist = hists
        edges, keys, starts = self._bins
        parent_score = g_total * g_total / (h_total + self.reg_lambda)

        # Only occupied bins can host a boundary (an empty bin's split
        # duplicates its predecessor's); each feature's last occupied
        # bin is excluded because nothing would go right.
        occupied = np.flatnonzero(n_hist > 0)
        occ_feat = np.searchsorted(starts, occupied, side="right") - 1
        boundary_pos = np.flatnonzero(occ_feat[:-1] == occ_feat[1:])
        if boundary_pos.size == 0:
            return None

        cum_g = np.cumsum(g_hist[occupied])
        cum_h = np.cumsum(h_hist[occupied])
        first_occ = np.searchsorted(occ_feat, np.arange(keys.shape[1]))
        base_g = np.concatenate(([0.0], cum_g))
        base_h = np.concatenate(([0.0], cum_h))
        boundary_base = first_occ[occ_feat[boundary_pos]]
        g_left = cum_g[boundary_pos] - base_g[boundary_base]
        h_left = cum_h[boundary_pos] - base_h[boundary_base]
        g_right = g_total - g_left
        h_right = h_total - h_left

        valid = np.flatnonzero(
            (h_left >= self.min_child_weight)
            & (h_right >= self.min_child_weight)
        )
        if valid.size == 0:
            return None
        g_left, h_left = g_left[valid], h_left[valid]
        g_right, h_right = g_right[valid], h_right[valid]
        gains = 0.5 * (
            g_left**2 / (h_left + self.reg_lambda)
            + g_right**2 / (h_right + self.reg_lambda)
            - parent_score
        ) - self.gamma
        local = int(np.argmax(gains))
        if gains[local] <= 0.0:
            return None
        best_flat = int(occupied[boundary_pos[valid[local]]])
        feature_idx = int(occ_feat[boundary_pos[valid[local]]])
        split_bin = best_flat - int(starts[feature_idx])
        threshold = float(edges[feature_idx][split_bin])
        left_mask = self._X[indices, feature_idx] <= split_bin
        return feature_idx, threshold, left_mask

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row of ``X``: a one-tree flat walk."""
        flat = FlatTrees.from_arrays(
            [(self.feature, self.threshold, self.left, self.right)],
            [self.leaf_value],
        )
        return flat.value[flat.apply(X)[:, 0]]


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Binary gradient boosting with logistic loss and XGBoost regularisers.

    The paper's grid (Table 2) selected ``min_child_weight=1``,
    ``max_depth=64``, ``gamma=0``.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.3,
        max_depth: int = 6,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        max_leaves: int = 4096,
        tree_method: str = "exact",
        max_bins: int = 255,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.gamma = gamma
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.max_leaves = max_leaves
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingClassifier":
        if self.tree_method not in ("exact", "hist"):
            raise ValueError("tree_method must be 'exact' or 'hist'.")
        X, y = check_X_y(X, y)
        y_encoded = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("GradientBoostingClassifier is binary-only.")
        n = X.shape[0]
        rng = np.random.default_rng(self.random_state)
        target = y_encoded.astype(np.float64)

        hist = self.tree_method == "hist"
        if hist:
            # Bin once per fit; the flat per-(sample, feature) bin keys
            # are shared by every boosting round's histograms.
            binner = Binner(self.max_bins).fit(X)
            codes = binner.transform(X)
            starts = np.zeros(len(binner.n_bins_) + 1, dtype=np.int64)
            np.cumsum(binner.n_bins_, out=starts[1:])
            keys = codes.astype(np.int64) + starts[:-1]

        positive_rate = float(np.clip(target.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(n, self.base_score_)

        self.trees_: list[_BoostTree] = []
        for _ in range(self.n_estimators):
            probability = 1.0 / (1.0 + np.exp(-raw))
            grad = probability - target
            hess = probability * (1.0 - probability)
            tree = _BoostTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                gamma=self.gamma,
                reg_lambda=self.reg_lambda,
                max_leaves=self.max_leaves,
            )
            if self.subsample < 1.0:
                chosen = rng.random(n) < self.subsample
                if chosen.sum() < 2:
                    chosen = np.ones(n, dtype=bool)
            else:
                chosen = slice(None)
            if hist:
                tree.fit(
                    codes[chosen], grad[chosen], hess[chosen],
                    bins=(binner.bin_edges_, keys[chosen], starts),
                )
            else:
                tree.fit(X[chosen], grad[chosen], hess[chosen])
            update = tree.predict(X)
            raw += self.learning_rate * update
            self.trees_.append(tree)
            if np.max(np.abs(grad)) < 1e-6:
                break  # already fit perfectly; further rounds are no-ops

        self.n_features_in_ = X.shape[1]
        self._flat_trees_ = None
        return self

    def _flat(self) -> FlatTrees:
        """Compiled flat representation of the boosted trees (lazy)."""
        flat = self.__dict__.get("_flat_trees_")
        if flat is None:
            flat = FlatTrees.from_arrays(
                [(t.feature, t.threshold, t.left, t.right)
                 for t in self.trees_],
                [t.leaf_value for t in self.trees_],
            )
            self._flat_trees_ = flat
        return flat

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_flat_trees_", None)
        return state

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, "trees_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.n_features_in_}."
            )
        # One batched traversal for every boosting round, then a
        # sequential left-fold over [base_score | per-round updates] --
        # the same float addition order as the historical per-tree
        # ``raw += lr * tree.predict(X)`` loop, so scores are bitwise
        # unchanged.
        flat = self._flat()
        contributions = self.learning_rate * flat.value[flat.apply(X)]
        terms = np.concatenate(
            [np.full((X.shape[0], 1), self.base_score_), contributions],
            axis=1,
        )
        return np.add.accumulate(terms, axis=1)[:, -1]

    def predict_proba(self, X) -> np.ndarray:
        positive = 1.0 / (1.0 + np.exp(-self.decision_function(X)))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        positive = self.predict_proba(X)[:, 1]
        return self.classes_[(positive >= 0.5).astype(np.int64)]
