"""Quantile feature binning for histogram-based tree growth.

Histogram ("hist") tree training discretises every feature into at most
``max_bins`` ordinal bins *once per forest* and grows trees over the
resulting ``uint8`` code matrix, the approach popularised by LightGBM
(Ke et al., NeurIPS '17) and XGBoost's ``tree_method=hist`` (Chen &
Guestrin, KDD '16).  :class:`Binner` owns the two halves of that
contract:

- **Binning**: per feature, bin edges are chosen so that ``code(x) <= b``
  is exactly ``x <= bin_edges_[f][b]``.  Features with few distinct
  values get midpoint edges (identical to the candidate thresholds the
  exact splitter would consider); high-cardinality features fall back
  to (unique) quantile edges, balancing sample mass per bin.
- **Threshold reconstruction**: a split "code <= b" found on the binned
  matrix is stored in the tree as the real-valued threshold
  ``bin_edges_[f][b]``, so fitted trees predict on *raw* feature
  matrices and are structurally indistinguishable from exact-mode
  trees.

Non-finite handling: ``-inf`` lands in bin 0, ``+inf`` in the top bin,
and ``NaN`` is mapped to the top bin as well (missing treated as
"high", the FN-averse choice for saturation metrics).  Edges themselves
are always finite and strictly increasing.

:func:`midpoint` is the one split-threshold rule of ``repro.ml``: the
exact tree splitter (:mod:`repro.ml.tree`), the exact GBM splitter
(:mod:`repro.ml.gbm`) and the midpoint edges here all call it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Binner", "midpoint"]


def midpoint(lo, hi):
    """The threshold between two adjacent distinct sorted values.

    ``x <= midpoint(lo, hi)`` is meant to send ``lo`` left and ``hi``
    right; works elementwise on arrays.  Known defect: when ``lo`` and
    ``hi`` are 1 ulp apart the midpoint can round up to ``hi``, so the
    partition applied differs from the one scored
    (``tests/test_ml_tree.py::TestMidpointThresholdDefect``).
    """
    return (lo + hi) / 2.0


class Binner:
    """Per-feature quantile binner producing ``uint8`` codes.

    Parameters
    ----------
    max_bins:
        Upper bound on bins per feature, at most 256 so codes fit in
        ``uint8``.  The default 255 mirrors LightGBM.
    """

    def __init__(self, max_bins: int = 255):
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256].")
        self.max_bins = max_bins

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "Binner":
        """Learn per-feature bin edges from the training matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("Binner expects a 2D matrix.")
        self.n_features_in_ = X.shape[1]
        self.bin_edges_: list[np.ndarray] = [
            self._feature_edges(X[:, f]) for f in range(X.shape[1])
        ]
        self.n_bins_ = np.array(
            [edges.size + 1 for edges in self.bin_edges_], dtype=np.int64
        )
        return self

    def _feature_edges(self, column: np.ndarray) -> np.ndarray:
        finite = column[np.isfinite(column)]
        if finite.size == 0:
            return np.empty(0)
        # One sort serves both the distinct-value extraction and the
        # quantile computation (np.unique and np.quantile would each
        # sort again; this fit runs over every feature of the matrix).
        ordered = np.sort(finite)
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        distinct = ordered[keep]
        if distinct.size <= 1:
            return np.empty(0)
        if distinct.size <= self.max_bins:
            # One bin per distinct value; midpoint edges reproduce the
            # exact splitter's candidate thresholds bit for bit.
            return midpoint(distinct[:-1], distinct[1:])
        # Interior quantiles by linear interpolation on the sorted
        # values (numpy's default method), same result as np.quantile.
        positions = (
            np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1] * (ordered.size - 1)
        )
        lower = positions.astype(np.int64)
        frac = positions - lower
        quantiles = ordered[lower] * (1.0 - frac) + ordered[
            np.minimum(lower + 1, ordered.size - 1)
        ] * frac
        edges = np.unique(quantiles)
        # A quantile can coincide with max(finite), which would leave the
        # top bin empty on the training data; harmless but wasteful.
        return edges[edges < distinct[-1]]

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        """Raw matrix -> ``uint8`` code matrix (C-contiguous)."""
        if not hasattr(self, "bin_edges_"):
            raise RuntimeError("Binner must be fitted first.")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must be 2D with {self.n_features_in_} features."
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for f, edges in enumerate(self.bin_edges_):
            column = X[:, f]
            # code <= b  <=>  x <= edges[b]: 'left' counts edges < x,
            # putting x == edges[b] into bin b.
            codes[:, f] = np.searchsorted(edges, column, side="left")
            missing = np.isnan(column)
            if missing.any():
                codes[missing, f] = len(edges)  # NaN -> top bin
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    # ------------------------------------------------------------------
    # Shared-memory packing
    # ------------------------------------------------------------------
    def pack(self) -> tuple[np.ndarray, np.ndarray]:
        """Flatten the ragged edge lists into two shippable ndarrays.

        Returns ``(values, offsets)`` where feature ``f``'s edges are
        ``values[offsets[f]:offsets[f + 1]]``.  Both arrays go through
        the POSIX shared-memory path, so pool workers reconstruct the
        edge lists zero-copy instead of unpickling them per task.
        """
        if not hasattr(self, "bin_edges_"):
            raise RuntimeError("Binner must be fitted first.")
        offsets = np.zeros(len(self.bin_edges_) + 1, dtype=np.int64)
        np.cumsum([edges.size for edges in self.bin_edges_], out=offsets[1:])
        values = (
            np.concatenate(self.bin_edges_)
            if offsets[-1] > 0
            else np.empty(0)
        )
        return values, offsets

    @staticmethod
    def unpack(values: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
        """Inverse of :meth:`pack`; returns per-feature edge views."""
        return [
            values[offsets[f]:offsets[f + 1]]
            for f in range(len(offsets) - 1)
        ]
