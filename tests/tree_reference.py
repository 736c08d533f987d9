"""Slow references for the exact splitter and the single-tree walk.

The exact splitter in :mod:`repro.ml.tree` scores all candidate
features of a node in one pass over a sorted ``(features, n)`` block,
with a class-major impurity kernel.  This module keeps the loop it
replaced: per candidate feature, argsort the node's column, build the
weighted one-hot prefix sums, and score the valid boundaries with the
row-major ``(boundaries, classes)`` impurity kernel.

:func:`loop_splitter` swaps :class:`LoopTreeBuilder` in for the exact
builder while a tree is fitted, so a test can fit the same estimator
both ways and compare the trees bit for bit.

:func:`tree_apply` is the per-tree level walk that predicted before
every tree was walked through :class:`repro.ml.flatforest.FlatTrees`;
the flat-forest tests and ``benchmarks/bench_predict.py`` compare the
flat walk against it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.ml.tree as tree_module

_LEAF = -1


def tree_apply(feature, threshold, left, right, X) -> np.ndarray:
    """Leaf index per row of ``X`` for one tree (vectorized level walk).

    Identical comparisons in identical order to the historical per-class
    copies (NaN compares False and goes right), so its leaves are the
    ones every fitted tree was validated against.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = feature[node] != _LEAF
    while np.any(active):
        idx = np.flatnonzero(active)
        nodes = node[idx]
        features = feature[nodes]
        go_left = X[idx, features] <= threshold[nodes]
        node[idx] = np.where(go_left, left[nodes], right[nodes])
        active[idx] = feature[node[idx]] != _LEAF
    return node


def loop_split_impurities(left_counts, right_counts, criterion):
    """Impurity of every (left, right) partition, row-major layout.

    ``left_counts``/``right_counts`` have shape (n_boundaries,
    n_classes).  Returns (left_impurity, right_impurity, left_weight,
    right_weight).
    """
    left_total = left_counts.sum(axis=1)
    right_total = right_counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        left_p = np.where(
            left_total[:, None] > 0, left_counts / left_total[:, None], 0.0
        )
        right_p = np.where(
            right_total[:, None] > 0, right_counts / right_total[:, None], 0.0
        )
        if criterion == "gini":
            left_imp = 1.0 - np.sum(left_p * left_p, axis=1)
            right_imp = 1.0 - np.sum(right_p * right_p, axis=1)
        else:
            left_log = np.zeros_like(left_p)
            np.log2(left_p, out=left_log, where=left_p > 0)
            right_log = np.zeros_like(right_p)
            np.log2(right_p, out=right_log, where=right_p > 0)
            left_imp = -np.sum(left_p * left_log, axis=1)
            right_imp = -np.sum(right_p * right_log, axis=1)
    return left_imp, right_imp, left_total, right_total


class LoopTreeBuilder(tree_module._TreeBuilder):
    """The exact builder with the per-feature split loop."""

    def _best_split(self, indices, parent_impurity, _node_weight):
        """Return (feature, threshold, gain, left_mask) or None.

        Sums the node's weight itself rather than trust the grower's.
        """
        n_features = self.X.shape[1]
        candidates = self.rng.permutation(n_features)
        w = self.w[indices]
        y = self.y[indices]
        node_weight = w.sum()

        best = None
        best_gain = self.min_impurity_decrease
        examined = 0
        for feature_idx in candidates:
            # scikit-learn semantics: examine at least max_features features,
            # but keep looking past constant ones.
            if examined >= self.max_features and best is not None:
                break
            column = self.X[indices, feature_idx]
            order = np.argsort(column, kind="quicksort")
            sorted_values = column[order]
            if sorted_values[0] == sorted_values[-1]:
                continue  # constant within the node
            examined += 1

            sorted_y = y[order]
            sorted_w = w[order]
            # One-hot weighted class matrix -> prefix sums give the class
            # histogram of every prefix in a single pass.
            onehot = np.zeros((len(order), self.n_classes))
            onehot[np.arange(len(order)), sorted_y] = sorted_w
            prefix = np.cumsum(onehot, axis=0)

            # Valid boundaries: between i and i+1 where the value changes
            # and both sides satisfy min_samples_leaf.
            boundary = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
            if self.min_samples_leaf > 1:
                boundary = boundary[
                    (boundary + 1 >= self.min_samples_leaf)
                    & (len(order) - boundary - 1 >= self.min_samples_leaf)
                ]
            if boundary.size == 0:
                continue

            left_counts = prefix[boundary]
            right_counts = prefix[-1] - left_counts
            left_imp, right_imp, left_w, right_w = loop_split_impurities(
                left_counts, right_counts, self.criterion
            )
            child_impurity = (left_w * left_imp + right_w * right_imp) / node_weight
            gains = parent_impurity - child_impurity
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                cut = boundary[best_local]
                threshold = float(
                    (sorted_values[cut] + sorted_values[cut + 1]) / 2.0
                )
                left_mask = column <= threshold
                best = (int(feature_idx), threshold, best_gain, left_mask)
        return best


@contextmanager
def loop_splitter():
    """Fit exact-mode trees with :class:`LoopTreeBuilder` inside the block."""
    batched = tree_module._TreeBuilder
    tree_module._TreeBuilder = LoopTreeBuilder
    try:
        yield
    finally:
        tree_module._TreeBuilder = batched
