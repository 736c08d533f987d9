"""Pinned outputs of the CART family beyond the default exact trees.

``tests/data/exact_fingerprint.json`` pins exact-mode trees and
forests; this file pins the other ways ``repro.ml`` grows a CART
model: hist trees (gini and entropy, ``max_features="sqrt"``, sample
and class weights, three classes), hist forests, ``splitter="random"``,
gradient boosting (exact and hist, with and without ``subsample``) and
AdaBoost (SAMME and SAMME.R, exact and hist).  Each case hashes the
fitted structure (node arrays, leaf values, importances, round
weights) and ``predict_proba`` over its training matrix; both must
match ``tests/data/cart_fingerprint.json`` bit for bit.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml.boosting import AdaBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbm import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier

FINGERPRINT_PATH = Path(__file__).parent / "data" / "cart_fingerprint.json"


def _data():
    """(X, binary y, three-class y, sample weights); heavy ties in 8 columns."""
    rng = np.random.default_rng(20261019)
    n, d = 600, 24
    X = rng.normal(size=(n, d))
    X[:, :8] = np.round(X[:, :8] * 2.0) / 2.0
    logits = X[:, 0] + 0.9 * X[:, 1] * X[:, 2] - 0.6 * np.abs(X[:, 3]) + X[:, 5]
    noisy = logits + 0.2 * rng.normal(size=n)
    weights = rng.integers(1, 5, size=n).astype(np.float64) / 2.0
    return X, (noisy > 0).astype(np.int64), np.digitize(noisy, [-0.6, 0.6]), weights


_TREE = DecisionTreeClassifier
_FOREST = RandomForestClassifier
_GBM = GradientBoostingClassifier
_ADA = AdaBoostClassifier

#: name -> (estimator class, parameters, three-class labels, sample weights)
CASES = {
    "exact_tree_three_classes": (_TREE, {"random_state": 0}, True, False),
    "hist_tree_gini": (_TREE, {"tree_method": "hist", "random_state": 0}, False, False),
    "hist_tree_entropy": (
        _TREE,
        {"tree_method": "hist", "criterion": "entropy", "max_depth": 8,
         "min_samples_leaf": 5, "random_state": 1},
        False, False,
    ),
    "hist_tree_sqrt": (
        _TREE, {"tree_method": "hist", "max_features": "sqrt", "random_state": 2},
        False, False,
    ),
    "hist_tree_sample_weight": (
        _TREE, {"tree_method": "hist", "random_state": 3}, False, True,
    ),
    "hist_tree_balanced": (
        _TREE,
        {"tree_method": "hist", "class_weight": "balanced", "random_state": 4},
        False, False,
    ),
    "hist_tree_three_classes": (
        _TREE,
        {"tree_method": "hist", "criterion": "entropy", "max_features": "sqrt",
         "random_state": 5},
        True, True,
    ),
    "hist_tree_few_bins": (
        _TREE,
        {"tree_method": "hist", "max_bins": 16, "min_impurity_decrease": 0.001,
         "min_samples_split": 10, "random_state": 6},
        False, False,
    ),
    "hist_forest_small": (
        _FOREST,
        {"tree_method": "hist", "n_estimators": 8, "min_samples_leaf": 4,
         "random_state": 0},
        False, False,
    ),
    "hist_forest_entropy_leaf20": (
        _FOREST,
        {"tree_method": "hist", "n_estimators": 6, "min_samples_leaf": 20,
         "criterion": "entropy", "random_state": 7},
        False, False,
    ),
    "hist_forest_three_classes_weighted": (
        _FOREST,
        {"tree_method": "hist", "n_estimators": 5, "class_weight": "balanced_subsample",
         "random_state": 8},
        True, True,
    ),
    "random_tree_default": (
        _TREE, {"splitter": "random", "random_state": 0}, False, False,
    ),
    "random_tree_entropy_sqrt": (
        _TREE,
        {"splitter": "random", "criterion": "entropy", "max_features": "sqrt",
         "min_samples_leaf": 3, "random_state": 1},
        False, False,
    ),
    "random_tree_sample_weight": (
        _TREE, {"splitter": "random", "max_depth": 10, "random_state": 2}, False, True,
    ),
    "random_tree_three_classes": (
        _TREE,
        {"splitter": "random", "min_impurity_decrease": 0.002, "random_state": 3},
        True, False,
    ),
    "gbm_exact": (
        _GBM, {"n_estimators": 8, "max_depth": 4, "random_state": 0}, False, False,
    ),
    "gbm_exact_subsample": (
        _GBM, {"n_estimators": 8, "max_depth": 4, "subsample": 0.7, "random_state": 1},
        False, False,
    ),
    "gbm_exact_regularised": (
        _GBM,
        {"n_estimators": 5, "max_depth": 6, "max_leaves": 8, "gamma": 0.05,
         "min_child_weight": 2.0, "reg_lambda": 3.0, "random_state": 2},
        False, False,
    ),
    "gbm_hist": (
        _GBM,
        {"tree_method": "hist", "n_estimators": 8, "max_depth": 4, "random_state": 0},
        False, False,
    ),
    "gbm_hist_subsample": (
        _GBM,
        {"tree_method": "hist", "n_estimators": 8, "max_depth": 4, "subsample": 0.7,
         "random_state": 1},
        False, False,
    ),
    "gbm_hist_regularised": (
        _GBM,
        {"tree_method": "hist", "n_estimators": 5, "max_depth": 6, "max_leaves": 8,
         "gamma": 0.05, "min_child_weight": 2.0, "reg_lambda": 3.0, "max_bins": 32,
         "random_state": 2},
        False, False,
    ),
    "ada_samme_exact": (
        _ADA, {"n_estimators": 8, "algorithm": "SAMME", "random_state": 0},
        False, False,
    ),
    "ada_samme_r_exact": (
        _ADA, {"n_estimators": 8, "algorithm": "SAMME.R", "random_state": 0},
        False, False,
    ),
    "ada_samme_hist": (
        _ADA,
        {"n_estimators": 8, "algorithm": "SAMME", "DT_tree_method": "hist",
         "random_state": 1},
        False, False,
    ),
    "ada_samme_r_hist": (
        _ADA,
        {"n_estimators": 8, "algorithm": "SAMME.R", "DT_tree_method": "hist",
         "random_state": 1},
        False, False,
    ),
    "ada_samme_r_random": (
        _ADA,
        {"n_estimators": 6, "algorithm": "SAMME.R", "DT_splitter": "random",
         "DT_criterion": "entropy", "random_state": 2},
        False, False,
    ),
    "ada_samme_hist_three_classes": (
        _ADA,
        {"n_estimators": 6, "algorithm": "SAMME", "DT_tree_method": "hist",
         "DT_max_depth": 2, "random_state": 3},
        True, False,
    ),
}


def _update(digest, *arrays) -> None:
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())


def _tree_arrays(tree) -> tuple:
    return (
        tree.tree_feature_, tree.tree_threshold_, tree.tree_left_,
        tree.tree_right_, tree.tree_value_, tree.feature_importances_,
    )


def model_digest(model) -> str:
    """sha256 over a fitted model's structure (not its pickle)."""
    digest = hashlib.sha256()
    if isinstance(model, DecisionTreeClassifier):
        _update(digest, *_tree_arrays(model))
    elif isinstance(model, RandomForestClassifier):
        for tree in model.estimators_:
            _update(digest, *_tree_arrays(tree))
        _update(digest, model.feature_importances_)
    elif isinstance(model, GradientBoostingClassifier):
        _update(digest, np.float64(model.base_score_))
        for tree in model.trees_:
            _update(
                digest,
                np.asarray(tree.feature, dtype=np.int64),
                np.asarray(tree.threshold, dtype=np.float64),
                np.asarray(tree.left, dtype=np.int64),
                np.asarray(tree.right, dtype=np.int64),
                np.asarray(tree.leaf_value, dtype=np.float64),
            )
    else:
        for tree in model.estimators_:
            _update(digest, *_tree_arrays(tree))
        _update(digest, np.asarray(model.estimator_weights_, dtype=np.float64))
    return digest.hexdigest()


def fit_case(name: str, data):
    X, y2, y3, weights = data
    cls, params, three_classes, weighted = CASES[name]
    y = y3 if three_classes else y2
    if weighted:
        return cls(**params).fit(X, y, sample_weight=weights)
    return cls(**params).fit(X, y)


def case_digests(name: str, data) -> dict:
    model = fit_case(name, data)
    proba = model.predict_proba(data[0])
    return {
        "model": model_digest(model),
        "proba": hashlib.sha256(np.ascontiguousarray(proba).tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def data():
    return _data()


@pytest.fixture(scope="module")
def stored():
    return json.loads(FINGERPRINT_PATH.read_text())["cases"]


def test_every_case_is_pinned(stored):
    assert sorted(stored) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_is_bitwise_pinned(data, stored, name):
    got = case_digests(name, data)
    assert got["model"] == stored[name]["model"], (
        f"fitted structure changed for {name}"
    )
    assert got["proba"] == stored[name]["proba"], (
        f"predict_proba output changed for {name}"
    )
