"""AdaBoost with decision-tree weak learners (Freund & Schapire, 1997).

Implements both the discrete ``SAMME`` and real-valued ``SAMME.R``
algorithm variants that appear in the paper's hyper-parameter grid
(Table 2).  Weak learners are shallow CART trees configured through the
``DT_*`` parameters, matching how the paper names them.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)
from repro.ml.binning import Binner
from repro.ml.flatforest import FlatTrees
from repro.ml.tree import DecisionTreeClassifier

__all__ = ["AdaBoostClassifier"]


class AdaBoostClassifier(BaseEstimator, ClassifierMixin):
    """Boosted shallow decision trees.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (paper grid: 50 / 250 / 500; 50 chosen).
    algorithm:
        ``"SAMME"`` (discrete) or ``"SAMME.R"`` (real).
    DT_criterion, DT_splitter, DT_min_samples_split, DT_max_depth:
        Configuration of the weak-learner trees, named as in Table 2.
    DT_tree_method, DT_max_bins:
        ``"hist"`` bins ``X`` once and fits every round's weak learner
        on the shared binned matrix (``DT_splitter`` must stay
        ``"best"``); the default ``"exact"`` is the historical path.
    learning_rate:
        Shrinkage applied to each round's contribution.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        algorithm: str = "SAMME.R",
        learning_rate: float = 1.0,
        DT_criterion: str = "gini",
        DT_splitter: str = "best",
        DT_min_samples_split: int = 2,
        DT_max_depth: int = 3,
        DT_tree_method: str = "exact",
        DT_max_bins: int = 255,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.algorithm = algorithm
        self.learning_rate = learning_rate
        self.DT_criterion = DT_criterion
        self.DT_splitter = DT_splitter
        self.DT_min_samples_split = DT_min_samples_split
        self.DT_max_depth = DT_max_depth
        self.DT_tree_method = DT_tree_method
        self.DT_max_bins = DT_max_bins
        self.random_state = random_state

    def _make_weak_learner(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            criterion=self.DT_criterion,
            splitter=self.DT_splitter,
            min_samples_split=self.DT_min_samples_split,
            max_depth=self.DT_max_depth,
            tree_method=self.DT_tree_method,
            max_bins=self.DT_max_bins,
            random_state=seed,
        )

    def fit(self, X, y) -> "AdaBoostClassifier":
        if self.algorithm not in ("SAMME", "SAMME.R"):
            raise ValueError("algorithm must be 'SAMME' or 'SAMME.R'.")
        X, y = check_X_y(X, y)
        y_encoded = self._encode_labels(y)
        n = X.shape[0]
        k = len(self.classes_)
        rng = check_random_state(self.random_state)

        hist = self.DT_tree_method == "hist"
        if hist:
            # Bin once; every boosting round's weak learner trains on
            # the same code matrix with its round-specific weights.
            binner = Binner(self.DT_max_bins).fit(X)
            codes = binner.transform(X)

        weights = np.full(n, 1.0 / n)
        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimator_weights_: list[float] = []

        for _ in range(self.n_estimators):
            learner = self._make_weak_learner(int(rng.integers(0, 2**31 - 1)))
            if hist:
                learner.fit_binned(
                    codes, binner.bin_edges_, y_encoded, sample_weight=weights
                )
            else:
                learner.fit(X, y_encoded, sample_weight=weights)

            if self.algorithm == "SAMME":
                predictions = learner.predict(X)
                incorrect = predictions != y_encoded
                error = float(np.sum(weights * incorrect))
                if error <= 0.0:
                    # Perfect learner: keep it with a large weight and stop.
                    self.estimators_.append(learner)
                    self.estimator_weights_.append(10.0)
                    break
                if error >= 1.0 - 1.0 / k:
                    break  # no better than chance; boosting cannot proceed
                alpha = self.learning_rate * (
                    np.log((1.0 - error) / error) + np.log(k - 1.0)
                )
                weights *= np.exp(alpha * incorrect)
                weights /= weights.sum()
                self.estimators_.append(learner)
                self.estimator_weights_.append(float(alpha))
            else:  # SAMME.R
                proba = np.clip(learner.predict_proba(X), 1e-12, 1.0)
                log_proba = np.log(proba)
                coded = np.full((n, k), -1.0 / (k - 1.0))
                coded[np.arange(n), y_encoded] = 1.0
                # Weight update from Zhu et al. (2009), eq. 4.
                exponent = (
                    -self.learning_rate
                    * ((k - 1.0) / k)
                    * np.sum(coded * log_proba, axis=1)
                )
                weights *= np.exp(np.clip(exponent, -50.0, 50.0))
                total = weights.sum()
                if total <= 0.0 or not np.isfinite(total):
                    break
                weights /= total
                self.estimators_.append(learner)
                self.estimator_weights_.append(1.0)

        if not self.estimators_:
            raise RuntimeError("AdaBoost failed to fit any weak learner.")
        self.n_features_in_ = X.shape[1]
        self._flat_trees_ = None
        return self

    def _flat(self) -> FlatTrees:
        """Weak learners compiled flat, leaf tables at full class width.

        :meth:`FlatTrees.from_classifiers` widens each learner's value
        table to ``len(classes_)`` columns, so the per-learner score
        math below reads one gathered probability row per (sample,
        round).
        """
        flat = self.__dict__.get("_flat_trees_")
        if flat is None:
            flat = FlatTrees.from_classifiers(
                self.estimators_, n_classes=len(self.classes_)
            )
            self._flat_trees_ = flat
        return flat

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_flat_trees_", None)
        return state

    def _decision_scores(self, X: np.ndarray) -> np.ndarray:
        k = len(self.classes_)
        n = X.shape[0]
        # One batched traversal covers every boosting round; the
        # per-round score updates below then consume gathered leaf
        # probability rows in the historical round order.
        flat = self._flat()
        leaves = flat.apply(X)
        scores = np.zeros((n, k))
        if self.algorithm == "SAMME":
            rows = np.arange(n)
            for j, alpha in enumerate(self.estimator_weights_):
                predictions = np.argmax(flat.value[leaves[:, j]], axis=1)
                scores[rows, predictions] += alpha
        else:
            for j in range(len(self.estimators_)):
                proba = np.clip(flat.value[leaves[:, j]], 1e-12, 1.0)
                log_proba = np.log(proba)
                scores += (k - 1.0) * (
                    log_proba - log_proba.mean(axis=1, keepdims=True)
                )
        return scores

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        scores = self._decision_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        scores = self._decision_scores(X)
        scores = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)
