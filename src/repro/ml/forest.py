"""Random forest classifier (Breiman, 2001).

Bootstrap-bagged CART trees with per-tree feature subsampling.  Exposes
``feature_importances_`` (mean decrease in impurity), which the paper
relies on twice: to filter the metric catalog down to the top-30 union
(section 3.3.4) and to produce the Table-4 ranking.  The paper's
asymmetric operating point (prediction threshold 0.4) is applied by
``MonitorlessModel.flags``, not here.

Training is embarrassingly parallel and runs through
:mod:`repro.parallel` when ``n_jobs`` asks for workers.  The
historical fit loop drew each tree's bootstrap indices and split seed
interleaved from one shared RNG *inside* the loop; that randomness is
now pre-drawn in the parent (same RNG, same draw order, so fixed-seed
forests are unchanged) and shipped to the workers with the task, so
for a fixed ``random_state`` the fitted forest is bitwise identical at
every ``n_jobs``.

``fit`` validates ``X`` and ``sample_weight`` once.  Exact-mode trees
then grow on one shared column-major copy of ``X`` through their
bootstrap row vectors, kept in bootstrap order, instead of on per-tree
copies of their rows; each tree is bitwise equal to one fitted on its
copy.  Hist-mode trees gather their bootstrap rows from the shared
``uint8`` code matrix.

Prediction always runs in-process on the compiled ``FlatForest``
(:mod:`repro.ml.flatforest`): one traversal of all rows x all trees,
votes summed in 16-tree chunks in the order of the historical per-tree
loop, which ``tests/test_flatforest.py`` keeps as the reference.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_sample_weight,
    check_X_y,
    compute_sample_weight,
)
from repro.ml.binning import Binner
from repro.ml.flatforest import _CHUNK_TREES, FlatForest
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel import parallel_map

__all__ = ["RandomForestClassifier"]


def _fit_tree_task(task, arrays) -> DecisionTreeClassifier:
    """Fit one bootstrap tree; runs in-process or in a pool worker.

    The task carries the tree's pre-drawn split seed and its row into
    the pre-drawn bootstrap-index matrix; ``X``/``y``, the base sample
    weight and that matrix arrive via the (shared) array dict.
    """
    row, tree_seed, params, bootstrap, per_bootstrap_weighting = task
    hist = "Xb" in arrays
    # Exact mode ships X feature-major; .T is the column-major (n, d) view.
    X = arrays["Xb"] if hist else arrays["X_by_feature"].T
    y, weight = arrays["y"], arrays["w"]
    if bootstrap:
        sample_idx = arrays["idx"][row]
    else:
        sample_idx = np.arange(X.shape[0])
    if per_bootstrap_weighting:
        # This bootstrap's 'balanced' weights, kept by row id (every
        # copy of a row has the row's label, hence one weight).
        weight = weight.copy()
        weight[sample_idx] = weight[sample_idx] * compute_sample_weight(
            "balanced", y[sample_idx]
        )
    tree = DecisionTreeClassifier(**params, random_state=tree_seed)
    # Recordings land in whichever process grows the tree: the parent
    # when serial, the worker's own registry when pooled.
    with obs.trace("forest.fit_tree"):
        if hist:
            # The forest binned X once; each tree gathers its bootstrap
            # rows from the shared uint8 code matrix and reconstructs
            # thresholds from the shared packed bin edges.
            edges = Binner.unpack(arrays["bin_values"], arrays["bin_offsets"])
            tree.fit_binned(
                X[sample_idx], edges, y[sample_idx],
                sample_weight=weight[sample_idx],
            )
        else:
            # Exact trees grow on the shared, already validated X
            # through their bootstrap rows: no per-tree copy.  Column
            # order keeps the gather of a node's candidate columns local.
            tree._fit_rows(X, y, weight, sample_idx)
    obs.inc("forest.trees_fitted")
    return tree


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Ensemble of bootstrapped CART trees with soft-vote prediction.

    The paper's tuned configuration (section 3.4) is ``n_estimators=250,
    min_samples_leaf=20, criterion='entropy'`` ("information gain"),
    ``class_weight=None``.

    ``n_jobs`` controls worker processes for ``fit`` only (bootstrap +
    tree growing); ``None``/1 is serial, ``-1`` uses every core.  The
    fitted forest is bitwise identical across ``n_jobs`` values for a
    fixed ``random_state``.  ``predict_proba`` always runs in-process
    on the compiled flat forest, whatever ``n_jobs`` is.

    ``tree_method="hist"`` quantile-bins ``X`` once (``max_bins`` bins
    per feature) and grows every tree over the shared binned matrix --
    about 4x faster on the wide Table-1 matrix; predictions still take
    raw feature matrices.  The default ``"exact"`` keeps the
    historical bitwise-stable output.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        class_weight=None,
        tree_method: str = "exact",
        max_bins: int = 255,
        random_state=None,
        n_jobs: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.class_weight = class_weight
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.random_state = random_state
        self.n_jobs = n_jobs

    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1.")
        if self.tree_method not in ("exact", "hist"):
            raise ValueError("tree_method must be 'exact' or 'hist'.")
        X, y = check_X_y(X, y)
        y_encoded = self._encode_labels(y)
        n = X.shape[0]

        base_weight = check_sample_weight(sample_weight, n)
        # 'balanced' weights are computed once on the full training set;
        # 'subsample'/'balanced_subsample' are recomputed per bootstrap.
        per_bootstrap_weighting = self.class_weight in (
            "subsample",
            "balanced_subsample",
        )
        if self.class_weight is not None and not per_bootstrap_weighting:
            base_weight = base_weight * compute_sample_weight(
                self.class_weight, y_encoded
            )

        # Every tree's bootstrap indices and split seed are drawn here,
        # up front, from the shared RNG in the exact order the old fit
        # loop drew them interleaved -- fixed-seed forests are bitwise
        # unchanged, and workers never touch a shared RNG.  The index
        # matrix travels through shared memory like X.
        rng = check_random_state(self.random_state)
        # Refitting invalidates any compiled flat representation and,
        # in exact mode, any binner left over from an earlier hist fit.
        self._flat_forest_ = None
        self.binner_ = None
        if self.tree_method == "hist":
            # Bin once per forest; every tree shares the uint8 code
            # matrix and the packed bin edges through shared memory
            # (workers never re-bin or receive a pickled copy).
            binner = Binner(self.max_bins).fit(X)
            self.binner_ = binner
            bin_values, bin_offsets = binner.pack()
            shared = {
                "Xb": binner.transform(X),
                "bin_values": bin_values,
                "bin_offsets": bin_offsets,
                "y": y_encoded,
                "w": base_weight,
            }
        else:
            shared = {
                "X_by_feature": np.ascontiguousarray(X.T),
                "y": y_encoded,
                "w": base_weight,
            }
        if self.bootstrap:
            bootstrap_idx = np.empty((self.n_estimators, n), dtype=np.int64)
        tree_seeds = []
        for i in range(self.n_estimators):
            if self.bootstrap:
                bootstrap_idx[i] = rng.integers(0, n, size=n)
            tree_seeds.append(int(rng.integers(0, 2**31 - 1)))
        if self.bootstrap:
            shared["idx"] = bootstrap_idx

        tree_params = {
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "tree_method": self.tree_method,
            "max_bins": self.max_bins,
        }
        tasks = [
            (i, seed, tree_params, self.bootstrap, per_bootstrap_weighting)
            for i, seed in enumerate(tree_seeds)
        ]
        with obs.trace("forest.fit"):
            self.estimators_: list[DecisionTreeClassifier] = parallel_map(
                _fit_tree_task, tasks, n_jobs=self.n_jobs, shared=shared
            )

        self.n_features_in_ = X.shape[1]
        importances = np.mean(
            [tree.feature_importances_ for tree in self.estimators_], axis=0
        )
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def _flat(self) -> FlatForest:
        """The compiled flat-forest, built lazily on first predict."""
        flat = self.__dict__.get("_flat_forest_")
        if flat is None:
            flat = FlatForest.from_estimators(
                self.estimators_, n_classes=len(self.classes_)
            )
            self._flat_forest_ = flat
        return flat

    def __getstate__(self):
        # The flat compile is derived state: dropping it keeps pickled
        # forests (checkpoints, pool shipping) lean, and it rebuilds on
        # first predict after load.
        state = self.__dict__.copy()
        state.pop("_flat_forest_", None)
        return state

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; forest was fitted with "
                f"{self.n_features_in_}."
            )
        n_trees = len(self.estimators_)
        with obs.trace("forest.predict_proba"):
            proba = self._flat().predict_proba(X)
        obs.inc("forest.predict_chunks", -(-n_trees // _CHUNK_TREES))
        obs.inc("forest.predict_chunk_trees", n_trees)
        return proba

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def top_features(self, k: int = 30) -> np.ndarray:
        """Indices of the ``k`` most important features, descending."""
        check_is_fitted(self, "feature_importances_")
        order = np.argsort(self.feature_importances_)[::-1]
        return order[:k]
