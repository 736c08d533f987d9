"""Compiled flat-forest representation and the one tree traversal.

The historical ensemble predict path looped over trees in Python, each
tree running its own vectorized level walk: 250 trees meant 250
separate walks plus 250 Python-level vote gathers per call, which
dominated the fleet serving tick.  This module compiles an ensemble
once into one contiguous struct-of-arrays -- every tree's
``feature``/``threshold``/``left``/``right`` arrays concatenated with
per-tree node offsets and child indices rebased to global node ids --
and traverses **all rows x all trees** in a single level-synchronous
walk over a flat ``(n_rows * n_trees)`` node-index vector, compacting
finished lanes out of the active set each level.  Rows are gathered
from the raw float64 matrix and compared against the stored float64
thresholds, reproducing every comparison of the per-tree walk bit for
bit (hist-mode trees store their thresholds as raw bin edges, so they
take the same walk; the per-tree walk is the reference in
``tests/tree_reference.py``).

:meth:`FlatTrees._walk` is the only tree traversal in the package: a
single ``DecisionTreeClassifier`` and each GBM round compile
themselves into a one-tree :class:`FlatTrees` and walk that.

:class:`FlatForest` layers classification voting on top: leaf values
are expanded to the ensemble's full class count at compile time and
accumulated per 16-tree chunk with ``np.add.accumulate`` (guaranteed
left-to-right, unlike pairwise ``np.sum``), reproducing the historical
chunk-then-cross-chunk float addition order exactly -- flat
probabilities are bitwise-equal to the per-tree reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlatTrees", "FlatForest"]

_LEAF = -1

#: Rows x trees at or below which the walk runs over all trees at once.
#: Small batches (the per-tick serving shape) want one walk with every
#: lane in flight; large batches want 16-tree column chunks so the
#: node/value gathers stay cache-resident.  32768 cells switches a
#: 250-tree forest at ~131 rows.
_UNCHUNKED_CELLS = 32768

#: Trees per traversal chunk above the cell cutoff, and trees per vote
#: chunk in :class:`FlatForest`: the historical per-tree loop's chunk
#: width, so one traversal chunk feeds one vote chunk.
_CHUNK_TREES = 16


class FlatTrees:
    """An ensemble's trees compiled into one struct-of-arrays.

    Attributes
    ----------
    feature, threshold, left, right:
        Concatenated node arrays; ``left``/``right`` hold *global* node
        ids (child + tree offset) for internal nodes.  Leaf children
        are never dereferenced -- the walk drops a lane the moment it
        lands on a leaf.
    offsets:
        ``offsets[t]:offsets[t + 1]`` is tree ``t``'s node range; the
        roots are ``offsets[:-1]``.
    value:
        Concatenated per-node value table, ``(total_nodes, k)`` (or
        ``(total_nodes,)`` for regression ensembles), aligned with the
        node arrays so ``value[leaves]`` gathers every vote at once.
    """

    def __init__(self, feature, threshold, left, right, offsets, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.offsets = offsets
        self.value = value
        self.roots = offsets[:-1]
        self.is_leaf = feature == _LEAF
        self.n_trees = len(offsets) - 1

    @classmethod
    def from_arrays(cls, trees, values) -> "FlatTrees":
        """Compile ``(feature, threshold, left, right)`` tuples + values.

        Child indices are rebased to global node ids; ``_LEAF``
        sentinels are kept as-is (never followed).  All index arrays
        are int64 -- numpy converts fancy indices to the platform word
        anyway, so narrower dtypes only add a cast per gather.
        """
        trees = [
            (
                np.asarray(f, dtype=np.int64),
                np.asarray(t, dtype=np.float64),
                np.asarray(lc, dtype=np.int64),
                np.asarray(rc, dtype=np.int64),
            )
            for f, t, lc, rc in trees
        ]
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum([f.size for f, _, _, _ in trees], out=offsets[1:])
        feature = np.concatenate([f for f, _, _, _ in trees])
        threshold = np.concatenate([t for _, t, _, _ in trees])
        left = np.concatenate([
            np.where(lc >= 0, lc + off, _LEAF)
            for (_, _, lc, _), off in zip(trees, offsets[:-1])
        ])
        right = np.concatenate([
            np.where(rc >= 0, rc + off, _LEAF)
            for (_, _, _, rc), off in zip(trees, offsets[:-1])
        ])
        value = np.concatenate([np.asarray(v, dtype=np.float64) for v in values])
        return cls(feature, threshold, left, right, offsets, value)

    @classmethod
    def from_classifiers(cls, estimators, n_classes: int) -> "FlatTrees":
        """Compile fitted ``DecisionTreeClassifier`` ensemble members.

        Each tree's ``(n_nodes, k_tree)`` value table is widened to the
        ensemble's ``n_classes`` columns via its own ``classes_`` (a
        bootstrap or a boosting round may have missed a class).  The
        inserted columns are exact ``0.0`` and probabilities are never
        ``-0.0``, so adding them is a bitwise no-op versus the per-tree
        ``votes[:, tree.classes_] +=`` scatter.
        """
        values = []
        for tree in estimators:
            table = tree.tree_value_
            if table.shape[1] == n_classes and np.array_equal(
                tree.classes_, np.arange(n_classes)
            ):
                values.append(table)
            else:
                expanded = np.zeros((table.shape[0], n_classes))
                expanded[:, np.asarray(tree.classes_, dtype=np.int64)] = table
                values.append(expanded)
        return cls.from_arrays(
            [(tree.tree_feature_, tree.tree_threshold_, tree.tree_left_,
              tree.tree_right_) for tree in estimators],
            values,
        )

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def apply(self, X) -> np.ndarray:
        """Leaf ids, shape ``(n_rows, n_trees)``, float comparisons."""
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        return self._walk(X.ravel(), X.shape[0], X.shape[1])

    def _walk(self, cells, n_rows, n_cols) -> np.ndarray:
        """All rows x a tree range, level-synchronous and compacted.

        ``cells`` is the row-major flattened float64 input matrix.
        """
        threshold = self.threshold
        row_base = np.arange(n_rows, dtype=np.int64) * n_cols
        out = np.empty((n_rows, self.n_trees), dtype=np.int64)
        if n_rows * self.n_trees <= _UNCHUNKED_CELLS:
            step = self.n_trees  # one walk, every lane in flight
        else:
            step = _CHUNK_TREES
        for start in range(0, self.n_trees, step):
            stop = min(start + step, self.n_trees)
            width = stop - start
            # Lane layout is row-major (row, tree): lanes of one row sit
            # together so the row_base gather stays local.
            node = np.tile(self.roots[start:stop], n_rows)
            base = np.repeat(row_base, width)
            idx = np.flatnonzero(~self.is_leaf[node])
            while idx.size:
                nd = node[idx]
                f = self.feature[nd]
                xv = cells[base[idx] + f]
                go_left = xv <= threshold[nd]
                nxt = np.where(go_left, self.left[nd], self.right[nd])
                node[idx] = nxt
                idx = idx[~self.is_leaf[nxt]]
            out[:, start:stop] = node.reshape(n_rows, width)
        return out


class FlatForest:
    """Soft-vote classification over a :class:`FlatTrees` compile.

    Wraps the traversal kernel with the forest's vote semantics: leaf
    probability rows gathered for all trees at once, then accumulated
    in the historical order -- left to right within each 16-tree chunk
    (``np.add.accumulate``), then chunk partials left to right -- so
    ``predict_proba`` output is bitwise-equal to the per-tree reference
    loop.
    """

    def __init__(self, flat: FlatTrees, n_estimators: int):
        self.flat = flat
        self.n_estimators = n_estimators

    @classmethod
    def from_estimators(cls, estimators, n_classes: int) -> "FlatForest":
        """Compile a fitted forest's ``DecisionTreeClassifier`` members
        (see :meth:`FlatTrees.from_classifiers`)."""
        flat = FlatTrees.from_classifiers(estimators, n_classes)
        return cls(flat, len(estimators))

    def predict_proba(self, X) -> np.ndarray:
        """Soft-vote class probabilities, bitwise-equal to the
        per-tree chunked reference."""
        return self._vote(self.flat.apply(X))

    def _vote(self, leaves: np.ndarray) -> np.ndarray:
        # One gather for every (row, tree) vote, then the historical
        # accumulation grouping: np.add.accumulate is specified as a
        # sequential left fold (np.sum would pairwise-sum and drift).
        votes = self.flat.value[leaves]  # (n_rows, n_trees, k)
        accumulated = None
        for start in range(0, self.flat.n_trees, _CHUNK_TREES):
            block = votes[:, start:start + _CHUNK_TREES]
            partial = np.add.accumulate(block, axis=1)[:, -1]
            accumulated = partial if accumulated is None \
                else accumulated + partial
        return accumulated / self.n_estimators
