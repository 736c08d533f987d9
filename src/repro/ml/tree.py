"""CART decision trees (Breiman et al., 1984) for classification.

Every tree grows through one depth-first recursion, ``_Grower._grow``,
which owns the node lists, the stopping rule (``max_depth``,
``min_samples_split``, ``2 * min_samples_leaf``, a pure node), the
leaf and internal-node bookkeeping and the importances.  The training
mode, ``tree_method``, only decides how a node finds its split:

- ``"exact"`` (default): a node scores all of its candidate features
  in one pass.  The candidate columns are gathered as one contiguous
  ``(features, n)`` block, every row is argsorted with the quicksort a
  1-D column gets (so tie orders are those of a per-feature sort), one
  class-major prefix sum gives the weighted class histogram of every
  prefix, and only the valid boundaries -- value changes that keep
  ``min_samples_leaf`` samples on both sides -- are scored.  Each
  feature's first best boundary then goes through scikit-learn's
  candidate rule (skip constant features, stop once ``max_features``
  non-constant ones are examined and one split helps, first strict
  maximum wins); blocks past the first are scored only when that rule
  reads further.  The threshold is :func:`repro.ml.binning.midpoint` of
  the two values around the boundary.  A tree grows on row ids, so a
  forest shares one training matrix among its trees and hands each
  tree its bootstrap rows instead of a copy of them.
- ``"hist"``: the feature matrix is quantile-binned once into a
  ``uint8`` code matrix (:class:`repro.ml.binning.Binner`, <= 255 bins)
  and split finding runs over per-node class-weighted bin histograms
  built with ``np.bincount``; candidate thresholds are reconstructed
  from the recorded bin edges, so the fitted tree predicts on raw
  feature matrices exactly like an exact-mode tree.  With per-node
  feature subsampling (``max_features``, the random-forest default)
  histograms are built only for the node's candidate features --
  cheaper by ``~n_features / max_features`` than the full-width
  histograms the sibling-subtraction trick requires (the GBM, which
  scores every feature at every node, uses that trick instead; see
  :mod:`repro.ml.gbm`).  Ensembles bin once and fan the code matrix
  out to all trees via :meth:`DecisionTreeClassifier.fit_binned`.

``splitter="random"`` (exact mode only) replaces the exact search with
one uniform threshold per examined candidate feature, extra-trees
style.

The tree is stored in flat arrays (``children_left``/``children_right``/
``feature``/``threshold``/``value``), which makes the structure
serialisable; prediction compiles them into a one-tree
:class:`repro.ml.flatforest.FlatTrees` and walks that.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    check_is_fitted,
    check_random_state,
    check_sample_weight,
    check_X_y,
    check_array,
    compute_sample_weight,
)
from repro.ml.binning import Binner, midpoint
from repro.ml.flatforest import FlatTrees

__all__ = ["DecisionTreeClassifier"]

_LEAF = -1


def _node_impurity(counts: np.ndarray, criterion: str) -> float:
    """Impurity of one node given weighted class counts."""
    total = counts.sum()
    if total <= 0.0:
        return 0.0
    p = counts / total
    if criterion == "gini":
        return float(1.0 - np.sum(p * p))
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a class-major ``(n_classes, m)`` array over its classes.

    Bitwise equal to ``sum(axis=1)`` over the row-major ``(m,
    n_classes)`` layout: numpy adds fewer than eight terms in order and
    eight or more pairwise, so only the latter pays for the transpose.
    """
    if a.shape[0] >= 8:
        return np.ascontiguousarray(a.T).sum(axis=1)
    return _row_sums(a.T)


def _side_impurity(counts: np.ndarray, criterion: str) -> tuple[np.ndarray, np.ndarray]:
    """(impurity, weight) of one side of every candidate partition.

    ``counts`` is class-major, shape (n_classes, n_boundaries): one
    contiguous row of weighted counts per class.
    """
    total = _class_sum(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, counts / total, 0.0)
    if criterion == "gini":
        return 1.0 - _class_sum(p * p), total
    return -_class_sum(_xlogx(p)), total


def _split_impurities(
    left_counts: np.ndarray, right_counts: np.ndarray, criterion: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized impurity of every candidate (left, right) partition.

    ``left_counts``/``right_counts`` are class-major, shape
    (n_classes, n_boundaries), so each class is one contiguous row.
    The arithmetic -- class sums in numpy's order, probabilities, then
    ``1 - sum(p^2)`` or ``-sum(p log2 p)`` -- is that of the row-major
    kernel the frozen exact trees were grown with, bit for bit.
    Returns (left_impurity, right_impurity, left_weight, right_weight).
    """
    left_imp, left_w = _side_impurity(left_counts, criterion)
    right_imp, right_w = _side_impurity(right_counts, criterion)
    return left_imp, right_imp, left_w, right_w


def _xlogx(a: np.ndarray) -> np.ndarray:
    """Elementwise ``a * log2(a)`` with the 0*log(0) = 0 convention."""
    out = np.zeros_like(a)
    np.log2(a, out=out, where=a > 0)
    out *= a
    return out


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` via explicit column adds.

    ``ndarray.sum(axis=1)`` pays ~100us of pairwise-reduction setup per
    call even for a 2-column matrix; with n_classes columns a handful of
    strided adds is orders of magnitude cheaper, and this runs several
    times per tree node.
    """
    out = a[:, 0].astype(np.float64, copy=True)
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _weighted_child_impurity(
    left_counts: np.ndarray,
    right_counts: np.ndarray,
    left_w: np.ndarray,
    right_w: np.ndarray,
    criterion: str,
) -> np.ndarray:
    """``left_w * H(left) + right_w * H(right)`` per candidate split.

    Equal in exact arithmetic -- not bit for bit -- to combining
    :func:`_split_impurities` outputs as ``lw*li + rw*ri``, but works in
    count space -- gini's weighted form is ``W - sum(c^2)/W`` and
    entropy's is ``W*log2(W) - sum(c*log2(c))``, which skips the
    probability normalisation (one divide and several masked
    temporaries per side) entirely.  This is the hist splitter's inner
    loop; the exact splitter keeps :func:`_split_impurities`, whose
    rounding its frozen trees depend on.
    """
    if criterion == "gini":
        with np.errstate(divide="ignore", invalid="ignore"):
            left_part = left_w - np.where(
                left_w > 0, _row_sums(left_counts * left_counts) / left_w, 0.0
            )
            right_part = right_w - np.where(
                right_w > 0,
                _row_sums(right_counts * right_counts) / right_w,
                0.0,
            )
        return left_part + right_part
    left_part = _xlogx(left_w) - _row_sums(_xlogx(left_counts))
    right_part = _xlogx(right_w) - _row_sums(_xlogx(right_counts))
    return left_part + right_part


#: Cap on the values (candidate features x node samples) one candidate
#: block may hold, so full-width trees stay bounded in memory at large
#: nodes: a wider node scores its candidates in several blocks.
_BLOCK_ELEMENTS = 1 << 19


class _Grower:
    """Grows one classification tree depth-first into flat node lists.

    The one recursion behind every tree: it owns the node lists, the
    stopping rule, the leaf and internal-node bookkeeping and the
    weighted-gain importances.  A subclass supplies only a node's split,
    ``_split(indices, counts, impurity, node_weight)``, which returns
    ``(feature, threshold, gain, left_mask)`` or ``None`` for a leaf.

    The hyper-parameters come from ``tree``, the estimator being
    fitted (its ``classes_`` already set).  ``X``, ``y`` and
    ``sample_weight`` are indexed by row id, and the tree grows on the
    sample ``root``: row ids in sample order, duplicates allowed.  A
    forest passes its shared training matrix and one bootstrap row
    vector instead of a per-tree copy of the rows.  Every node keeps
    its row ids in sample order, so each gather -- and with it every
    sort's tie order and every floating-point sum -- is the one a tree
    fitted on ``X[root]`` would see.
    """

    def __init__(self, tree, X, y, sample_weight, root):
        self.X = X
        self.y = y
        self.w = sample_weight
        self.root = root
        self.n_classes = len(tree.classes_)
        self.criterion = tree.criterion
        self.max_depth = np.inf if tree.max_depth is None else tree.max_depth
        self.min_samples_split = tree.min_samples_split
        self.min_samples_leaf = tree.min_samples_leaf
        self.max_features = _resolve_max_features(tree.max_features, X.shape[1])
        self.rng = check_random_state(tree.random_state)
        self.min_impurity_decrease = tree.min_impurity_decrease
        self.splitter = tree.splitter
        self.total_weight = float(sample_weight[root].sum())

        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.value: list[np.ndarray] = []
        self.importances = np.zeros(X.shape[1])

    def build(self) -> None:
        self._grow(self.root, depth=0)

    def _class_counts(self, indices: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.y[indices], weights=self.w[indices], minlength=self.n_classes
        )

    def _node_weight(self, indices: np.ndarray) -> float:
        return self.w[indices].sum()

    def _grow(self, indices: np.ndarray, depth: int) -> int:
        counts = self._class_counts(indices)
        impurity = _node_impurity(counts, self.criterion)
        n = indices.shape[0]
        split = None
        if not (
            depth >= self.max_depth
            or n < self.min_samples_split
            or n < 2 * self.min_samples_leaf
            or impurity <= 1e-12
        ):
            node_weight = self._node_weight(indices)
            split = self._split(indices, counts, impurity, node_weight)
        node_id = len(self.feature)
        self.value.append(counts)
        self.children_left.append(_LEAF)  # a split patches both below
        self.children_right.append(_LEAF)
        if split is None:
            self.feature.append(_LEAF)
            self.threshold.append(0.0)
            return node_id

        feature, threshold, gain, left_mask = split
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.importances[feature] += (node_weight / self.total_weight) * gain
        self.children_left[node_id] = self._grow(indices[left_mask], depth + 1)
        self.children_right[node_id] = self._grow(indices[~left_mask], depth + 1)
        return node_id


class _TreeBuilder(_Grower):
    """Exact-mode splits: best boundary (default) or ``splitter="random"``."""

    def _split(self, indices, counts, impurity, node_weight):
        if self.splitter == "random":
            return self._random_split(indices, impurity, node_weight)
        return self._best_split(indices, impurity, node_weight)

    def _best_split(
        self, indices: np.ndarray, parent_impurity: float, node_weight: float
    ):
        """Return (feature, threshold, gain, left_mask) or None.

        Candidates are visited in one random permutation with
        scikit-learn's rule: skip features constant within the node,
        stop once ``max_features`` non-constant features have been
        examined and one split beats ``min_impurity_decrease``; the
        first strict maximum wins.  The scores come from
        :meth:`_scored_candidates`, which scores the candidates a block
        at a time and only as far as this rule reads.
        """
        candidates = self.rng.permutation(self.X.shape[1])
        best = None
        best_gain = self.min_impurity_decrease
        examined = 0
        for feature, nonconstant, gain, cut, values in self._scored_candidates(
            indices, candidates, node_weight, parent_impurity
        ):
            if nonconstant:
                examined += 1
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, cut, values)
            # Checked before the next candidate is read, so a block is
            # never scored only to be stopped at its first candidate.
            if examined >= self.max_features and best is not None:
                break
        if best is None:
            return None
        feature, cut, values = best
        threshold = float(midpoint(values[cut], values[cut + 1]))
        left_mask = self.X[indices, feature] <= threshold
        return feature, threshold, best_gain, left_mask

    def _scored_candidates(
        self,
        indices: np.ndarray,
        candidates: np.ndarray,
        node_weight: float,
        parent_impurity: float,
    ):
        """Yield (feature, nonconstant, gain, cut, sorted values) per candidate.

        Candidates are scored in blocks, the next block only when the
        consumer reads past the last: the first is ``max_features``
        wide, each later one twice as wide as the one before, and none
        holds more than ``_BLOCK_ELEMENTS`` values.  A block gathers its
        candidate columns as one contiguous ``(features, n)`` matrix and
        sorts every row with the quicksort a 1-D column gets, so tie
        orders are those of a per-feature sort.
        """
        n = indices.shape[0]
        widest = max(1, _BLOCK_ELEMENTS // n)
        y_node, w_node = self.y[indices], self.w[indices]
        start, width = 0, self.max_features
        while start < candidates.size:
            block = candidates[start:start + min(width, widest)]
            start += block.size
            width *= 2
            values = self.X[indices[None, :], block[:, None]]
            order = np.argsort(values, axis=1, kind="quicksort")
            sorted_values = values.ravel()[
                order + np.arange(0, values.size, n)[:, None]
            ]
            nonconstant, gains, cuts = self._score_block(
                sorted_values, y_node[order], w_node[order], node_weight,
                parent_impurity,
            )
            yield from zip(
                block.tolist(), nonconstant.tolist(), gains.tolist(),
                cuts.tolist(), sorted_values,
            )

    def _score_block(
        self,
        sorted_values: np.ndarray,
        sorted_y: np.ndarray,
        sorted_w: np.ndarray,
        node_weight: float,
        parent_impurity: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best boundary of every row of a sorted ``(features, n)`` block.

        A boundary sits between sorted positions ``i`` and ``i + 1``
        where the value changes and both sides keep
        ``min_samples_leaf`` samples; only those are scored.  Returns
        per row whether the feature varies within the node, the gain of
        its first best boundary (``-inf`` when it has none) and that
        boundary's position.
        """
        n_rows, n = sorted_values.shape
        nonconstant = sorted_values[:, 0] != sorted_values[:, -1]
        change = sorted_values[:, 1:] != sorted_values[:, :-1]
        change[:, : self.min_samples_leaf - 1] = False
        change[:, n - self.min_samples_leaf:] = False
        # Flat positions in the (rows, n - 1) boundary grid.
        boundary = np.flatnonzero(change)
        gains = np.full(change.shape, -np.inf)
        if boundary.size:
            row = boundary // (n - 1)
            # The class-major weighted one-hot matrix: its running sums
            # along each row are the class weights of every prefix.
            size = sorted_y.size
            onehot = np.zeros(self.n_classes * size)
            onehot[sorted_y.ravel() * size + np.arange(size)] = sorted_w.ravel()
            prefix = np.cumsum(
                onehot.reshape(self.n_classes, n_rows, n), axis=2
            ).reshape(self.n_classes, size)
            left_counts = np.take(prefix, boundary + row, axis=1)
            totals = np.take(prefix, (row + 1) * n - 1, axis=1)
            left_imp, right_imp, left_w, right_w = _split_impurities(
                left_counts, totals - left_counts, self.criterion
            )
            child_impurity = (left_w * left_imp + right_w * right_imp) / node_weight
            gains.ravel()[boundary] = parent_impurity - child_impurity
        best = gains.argmax(axis=1)
        return nonconstant, gains.ravel()[np.arange(n_rows) * (n - 1) + best], best

    # ------------------------------------------------------------------
    # Randomized-threshold splitter (splitter="random")
    # ------------------------------------------------------------------
    def _random_split(
        self, indices: np.ndarray, parent_impurity: float, node_weight: float
    ):
        """Extra-trees style split: a random threshold per candidate.

        Examines up to ``max_features`` non-constant candidate features
        (matching scikit-learn's semantics) and draws one uniform
        threshold in each feature's node-local range; the best-scoring
        candidate wins.  The pre-histogram implementation collapsed
        ``splitter="random"`` to examining a single feature with
        best-threshold search -- a different (and much weaker)
        randomisation.  No bitwise regression test pinned that
        behaviour, so it was removed rather than kept behind a fallback.
        """
        candidates = self.rng.permutation(self.X.shape[1])
        w = self.w[indices]
        y = self.y[indices]
        n = indices.shape[0]

        best = None
        best_gain = self.min_impurity_decrease
        examined = 0
        for feature_idx in candidates:
            if examined >= self.max_features and best is not None:
                break
            column = self.X[indices, feature_idx]
            low = column.min()
            high = column.max()
            if low == high:
                continue  # constant within the node
            examined += 1

            # One rng draw per examined feature, strictly inside the
            # node's range so neither side can be empty.
            threshold = float(self.rng.uniform(low, high))
            if threshold >= high:  # guard against fp rounding up
                threshold = float(low)
            left_mask = column <= threshold
            n_left = int(np.count_nonzero(left_mask))
            if (
                n_left < self.min_samples_leaf
                or n - n_left < self.min_samples_leaf
                or n_left == 0
                or n_left == n
            ):
                continue

            left_counts = np.bincount(
                y[left_mask], weights=w[left_mask], minlength=self.n_classes
            )
            right_counts = np.bincount(
                y[~left_mask], weights=w[~left_mask], minlength=self.n_classes
            )
            left_imp, right_imp, left_w, right_w = _split_impurities(
                left_counts[:, None], right_counts[:, None], self.criterion
            )
            gain = parent_impurity - float(
                (left_w[0] * left_imp[0] + right_w[0] * right_imp[0]) / node_weight
            )
            if gain > best_gain:
                best_gain = gain
                best = (int(feature_idx), threshold, best_gain, left_mask)
        return best


class _HistTreeBuilder(_Grower):
    """Hist-mode splits over a quantile-binned ``uint8`` code matrix.

    ``X`` is the code matrix.  Per node, class-weighted histograms over
    the candidate features' bins are built with one fused
    ``np.bincount`` (bin and class fold into a single flat key), and
    every candidate boundary of every candidate feature is scored in
    one vectorized pass over the (features x bins) histogram tensor via
    the count-space kernel :func:`_weighted_child_impurity`.  Split
    thresholds are reconstructed from the binner's recorded edges so
    the finished tree predicts on raw feature matrices.
    """

    def __init__(self, tree, codes, bin_edges, y, sample_weight):
        super().__init__(tree, codes, y, sample_weight, np.arange(codes.shape[0]))
        self.edges = bin_edges
        self.n_bins = np.array(
            [edges.size + 1 for edges in bin_edges], dtype=np.int64
        )
        # Uniform weights let the weighted histogram be derived from the
        # integer count histogram (one bincount instead of two).
        self.uniform_weight = sample_weight.size > 0 and bool(
            np.all(sample_weight == sample_weight[0])
        )

    def _class_counts(self, indices: np.ndarray) -> np.ndarray:
        if self.uniform_weight:
            # Integer bincount scaled by the shared weight: skips the
            # float-weights bincount path and the per-node w gather.
            return np.bincount(
                self.y[indices], minlength=self.n_classes
            ) * float(self.w[0])
        return super()._class_counts(indices)

    def _node_weight(self, indices: np.ndarray) -> float:
        if self.uniform_weight:
            return self.w[0] * indices.shape[0]
        return super()._node_weight(indices)

    def _split(self, indices, counts, parent_impurity, node_weight):
        """Return (feature, threshold, gain, left_mask) or None."""
        n_features = self.X.shape[1]
        permutation = self.rng.permutation(n_features)
        y_node = self.y[indices]
        # Per-sample weights feed only the weighted bincount path.
        w_node = None if self.uniform_weight else self.w[indices]

        # Phase 1: the first max_features candidates.  Phase 2 (rare):
        # if none of them yields a split -- all constant in the node, or
        # all gainless -- the remaining features are scored in one more
        # batch, mirroring how the exact splitter keeps looking past
        # constant/gainless candidates.
        found = self._score_candidates(
            indices, permutation[: self.max_features], y_node, w_node,
            counts, node_weight, parent_impurity,
        )
        if found is None and self.max_features < n_features:
            found = self._score_candidates(
                indices, permutation[self.max_features:], y_node, w_node,
                counts, node_weight, parent_impurity,
            )
        if found is None:
            return None

        feature_idx, split_bin, gain = found
        threshold = float(self.edges[feature_idx][split_bin])
        left_mask = self.X[indices, feature_idx] <= split_bin
        return feature_idx, threshold, gain, left_mask

    def _score_candidates(
        self,
        indices: np.ndarray,
        candidates: np.ndarray,
        y_node: np.ndarray,
        w_node: np.ndarray,
        counts: np.ndarray,
        node_weight: float,
        parent_impurity: float,
    ):
        """Best (feature, bin, gain) among ``candidates`` or None."""
        if candidates.size == 0:
            return None
        k = self.n_classes
        bins_per_cand = self.n_bins[candidates]
        cand_starts = np.zeros(candidates.size + 1, dtype=np.int64)
        np.cumsum(bins_per_cand, out=cand_starts[1:])
        total_bins = int(cand_starts[-1])

        # One fused histogram over (candidate, bin, class): the flat key
        # of sample i at candidate j is (start_j + code_ij) * k + y_i.
        # Built in place on the int64 gather to avoid three (n x c)
        # temporaries per node.
        sub = self.X[indices][:, candidates].astype(np.int64)
        sub += cand_starts[:-1]
        sub *= k
        sub += y_node[:, None]
        flat = sub.ravel()
        hist_flat = np.bincount(flat, minlength=total_bins * k)
        hist_nk = hist_flat.reshape(total_bins, k)
        hist_n = hist_flat[0::k].copy()
        for j in range(1, k):
            hist_n += hist_flat[j::k]

        # Split evaluation touches only *occupied* bins: an empty bin's
        # boundary duplicates its nearest occupied predecessor's, so the
        # search space shrinks from sum(n_bins) to at most
        # n_node x n_candidates entries -- the difference between O(bins)
        # and O(samples) work at the deep, small nodes that dominate the
        # node count.  A candidate boundary is every occupied bin except
        # each candidate's last (nothing would go right).
        occupied = np.flatnonzero(hist_n > 0)
        occ_cand = np.searchsorted(cand_starts, occupied, side="right") - 1
        boundary_pos = np.flatnonzero(occ_cand[:-1] == occ_cand[1:])
        if boundary_pos.size == 0:
            return None
        if self.uniform_weight:
            hist_w_occ = hist_nk[occupied] * float(self.w[0])
        else:
            hist_w_occ = np.bincount(
                flat,
                weights=np.repeat(w_node, candidates.size),
                minlength=total_bins * k,
            ).reshape(total_bins, k)[occupied]

        # Prefix sums over the occupied rows; each candidate's base
        # (prefix just before its first occupied bin) is subtracted to
        # localise the sums, and a prepended zero row makes base lookups
        # branch-free.  The integer sample counts come first: the
        # min_samples_leaf filter usually kills most boundaries at deep
        # nodes, so the float/log impurity work only runs on survivors.
        cum_n = np.cumsum(hist_n[occupied])
        first_occ = np.searchsorted(occ_cand, np.arange(candidates.size))
        base_n = np.concatenate(([0], cum_n))
        boundary_base = first_occ[occ_cand[boundary_pos]]
        left_n = cum_n[boundary_pos] - base_n[boundary_base]
        right_n = indices.shape[0] - left_n
        valid = np.flatnonzero(
            (left_n >= self.min_samples_leaf)
            & (right_n >= self.min_samples_leaf)
        )
        if valid.size == 0:
            return None
        boundary_pos = boundary_pos[valid]
        boundary_base = boundary_base[valid]

        cum_w = np.cumsum(hist_w_occ, axis=0)
        cum_wt = np.cumsum(_row_sums(hist_w_occ))
        base_w = np.vstack((np.zeros((1, k)), cum_w))
        base_wt = np.concatenate(([0.0], cum_wt))
        left_counts = cum_w[boundary_pos] - base_w[boundary_base]
        left_w = cum_wt[boundary_pos] - base_wt[boundary_base]
        right_counts = counts[None, :] - left_counts
        right_w = node_weight - left_w

        child_impurity = _weighted_child_impurity(
            left_counts, right_counts, left_w, right_w, self.criterion
        ) / node_weight
        gains = parent_impurity - child_impurity
        best = int(np.argmax(gains))
        if gains[best] <= self.min_impurity_decrease:
            return None
        best_flat = int(occupied[boundary_pos[best]])
        best_cand = int(occ_cand[boundary_pos[best]])
        return (
            int(candidates[best_cand]),
            best_flat - int(cand_starts[best_cand]),
            float(gains[best]),
        )


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    if isinstance(max_features, int):
        return max(1, min(max_features, n_features))
    raise ValueError(f"Unsupported max_features: {max_features!r}")


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classifier with gini/entropy splitting.

    Parameters mirror scikit-learn's estimator of the same name, which
    lets the paper's hyper-parameter grids (Table 2) apply verbatim.
    ``tree_method`` selects exact split finding (default; bitwise
    stable across releases) or histogram-binned training (``"hist"``,
    about 4x faster on the wide Table-1 matrix at a statistically
    negligible accuracy cost, see ``BENCH_hist.json``); ``max_bins``
    caps the bins per feature in hist mode.
    """

    def __init__(
        self,
        criterion: str = "gini",
        splitter: str = "best",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        class_weight=None,
        min_impurity_decrease: float = 0.0,
        tree_method: str = "exact",
        max_bins: int = 255,
        random_state=None,
    ):
        self.criterion = criterion
        self.splitter = splitter
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.class_weight = class_weight
        self.min_impurity_decrease = min_impurity_decrease
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.random_state = random_state

    def _validate_params(self) -> None:
        if self.criterion not in ("gini", "entropy"):
            raise ValueError("criterion must be 'gini' or 'entropy'.")
        if self.splitter not in ("best", "random"):
            raise ValueError("splitter must be 'best' or 'random'.")
        if self.tree_method not in ("exact", "hist"):
            raise ValueError("tree_method must be 'exact' or 'hist'.")
        if self.tree_method == "hist" and self.splitter == "random":
            raise ValueError(
                "splitter='random' is exact-only; histogram training "
                "searches bin boundaries, not random thresholds."
            )

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        self._validate_params()
        X, y = check_X_y(X, y)
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        if self.tree_method == "hist":
            binner = Binner(self.max_bins).fit(X)
            return self.fit_binned(
                binner.transform(X), binner.bin_edges_, y, sample_weight
            )
        return self._fit_rows(X, y, sample_weight, np.arange(X.shape[0]))

    def _fit_rows(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray,
        rows: np.ndarray,
    ) -> "DecisionTreeClassifier":
        """Exact-mode fit on the sample ``X[rows]`` without building it.

        ``rows`` holds row ids of ``X`` in sample order, duplicates
        allowed: a forest passes each tree's bootstrap rows and shares
        one training matrix among all trees.  The inputs are trusted to
        be validated and row-aligned; ``X`` may be in either memory
        order (column-major makes the per-node column gathers local).
        The fitted tree is bitwise equal to ``fit(X[rows], y[rows],
        sample_weight=sample_weight[rows])``.
        """
        # Unlike the other classifiers, a tree tolerates single-class input
        # (it becomes one leaf); random-forest bootstraps rely on this.
        self.classes_, encoded = np.unique(y[rows], return_inverse=True)
        # Labels and weights stay indexed by row id; rows outside the
        # sample are never read.
        y_encoded = np.zeros(X.shape[0], dtype=np.int64)
        y_encoded[rows] = encoded
        weight = np.zeros(X.shape[0])
        weight[rows] = sample_weight[rows] * compute_sample_weight(
            self.class_weight, encoded
        )

        return self._fit_builder(_TreeBuilder(self, X, y_encoded, weight, rows))

    def fit_binned(
        self, codes, bin_edges, y, sample_weight=None
    ) -> "DecisionTreeClassifier":
        """Fit a hist-mode tree on an already-binned code matrix.

        Ensembles use this to bin once per forest and fan the shared
        ``uint8`` matrix out to every tree: ``codes`` is the
        :meth:`repro.ml.binning.Binner.transform` output and
        ``bin_edges`` the fitted binner's per-feature edge arrays used
        to reconstruct real-valued split thresholds.
        """
        self._validate_params()
        if self.tree_method != "hist":
            raise ValueError("fit_binned requires tree_method='hist'.")
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        y = np.asarray(y)
        if y.ndim != 1:
            y = y.ravel()
        if codes.ndim != 2 or codes.shape[0] != y.shape[0]:
            raise ValueError("codes must be 2D and aligned with y.")
        if codes.shape[1] != len(bin_edges):
            raise ValueError("bin_edges must describe every feature column.")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        y_encoded = encoded.astype(np.int64)
        weight = check_sample_weight(sample_weight, codes.shape[0])
        weight = weight * compute_sample_weight(self.class_weight, y_encoded)
        return self._fit_builder(
            _HistTreeBuilder(self, codes, list(bin_edges), y_encoded, weight)
        )

    def _fit_builder(self, builder: _Grower) -> "DecisionTreeClassifier":
        """Grow ``builder``'s tree and store it as the fitted arrays."""
        builder.build()
        self.n_features_in_ = builder.X.shape[1]
        self.tree_feature_ = np.asarray(builder.feature, dtype=np.int64)
        self.tree_threshold_ = np.asarray(builder.threshold, dtype=np.float64)
        self.tree_left_ = np.asarray(builder.children_left, dtype=np.int64)
        self.tree_right_ = np.asarray(builder.children_right, dtype=np.int64)
        values = np.vstack(builder.value)
        totals = values.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        self.tree_value_ = values / totals
        raw = builder.importances
        self.feature_importances_ = (
            raw / raw.sum() if raw.sum() > 0 else raw
        )
        self.n_nodes_ = len(builder.feature)
        return self

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of ``X``: a one-tree flat walk."""
        flat = FlatTrees.from_arrays(
            [(self.tree_feature_, self.tree_threshold_,
              self.tree_left_, self.tree_right_)],
            [self.tree_value_],
        )
        return flat.apply(X)[:, 0]

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_feature_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; tree was fitted with "
                f"{self.n_features_in_}."
            )
        return self.tree_value_[self._apply(X)]

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    @property
    def depth_(self) -> int:
        """Maximum depth of the fitted tree (vectorized level walk)."""
        check_is_fitted(self, "tree_feature_")
        nodes = np.array([0], dtype=np.int64)
        depth = 0
        while True:
            internal = nodes[self.tree_feature_[nodes] != _LEAF]
            if internal.size == 0:
                return depth
            nodes = np.concatenate(
                (self.tree_left_[internal], self.tree_right_[internal])
            )
            depth += 1

    @property
    def n_leaves_(self) -> int:
        """Number of leaves of the fitted tree."""
        check_is_fitted(self, "tree_feature_")
        return int(np.count_nonzero(self.tree_feature_ == _LEAF))
