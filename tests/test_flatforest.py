"""Flat-forest batched inference: equivalence against the per-tree
reference walk and the historical vote order.

The compiled kernel (:mod:`repro.ml.flatforest`) must be *bitwise*
indistinguishable from the code it replaced: same leaves from the
traversal (property-tested against the historical per-tree level walk,
:func:`tests.tree_reference.tree_apply`, non-finite cells included),
same probabilities from the vote accumulation (reference = the 16-tree
chunk loop), for exact and hist-fitted forests alike.  A single tree's
``_apply`` and a boosting round's ``predict`` are themselves one-tree
flat walks, so the forest and GBM references walk their trees with
``tree_apply`` instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.flatforest import FlatTrees
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbm import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.tree_reference import tree_apply


def reference_apply(tree, X):
    """The historical per-tree level walk over one fitted tree."""
    return tree_apply(
        tree.tree_feature_, tree.tree_threshold_,
        tree.tree_left_, tree.tree_right_, X,
    )


def reference_forest_proba(forest, X):
    """The historical chunked per-tree vote loop: each 16-tree chunk's
    votes scattered into one accumulator through every tree's own
    ``classes_``, then the chunk partials summed left to right."""
    k = len(forest.classes_)
    partials = []
    for start in range(0, len(forest.estimators_), 16):
        votes = np.zeros((X.shape[0], k))
        for tree in forest.estimators_[start:start + 16]:
            votes[:, tree.classes_] += tree.tree_value_[reference_apply(tree, X)]
        partials.append(votes)
    accumulated = partials[0]
    for votes in partials[1:]:
        accumulated = accumulated + votes
    return accumulated / len(forest.estimators_)


def make_query(rng, n, d, with_nonfinite=True):
    X = rng.normal(size=(n, d))
    if with_nonfinite and n >= 3:
        X[0, rng.integers(0, d)] = np.nan
        X[1, rng.integers(0, d)] = np.inf
        X[2, rng.integers(0, d)] = -np.inf
    return X


class TestTraversalProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_train=st.integers(20, 150),
        d=st.integers(2, 10),
        n_query=st.integers(1, 60),
        max_depth=st.integers(1, 10),
        nonfinite=st.booleans(),
    )
    def test_flat_equals_reference_apply(
        self, seed, n_train, d, n_query, max_depth, nonfinite
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_train, d))
        X[:, 0] = np.round(X[:, 0])  # ties exercise equal-to-threshold cells
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
        tree = DecisionTreeClassifier(
            max_depth=max_depth, random_state=int(seed % 1000)
        ).fit(X, y)
        Xq = make_query(rng, n_query, d, with_nonfinite=nonfinite)

        expected = reference_apply(tree, Xq)
        np.testing.assert_array_equal(tree._apply(Xq), expected)

        flat = FlatTrees.from_arrays(
            [(tree.tree_feature_, tree.tree_threshold_,
              tree.tree_left_, tree.tree_right_)],
            [tree.tree_value_],
        )
        np.testing.assert_array_equal(flat.apply(Xq)[:, 0], expected)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_trees=st.integers(2, 8),
        n_query=st.integers(1, 40),
    )
    def test_flat_multi_tree_equals_per_tree(self, seed, n_trees, n_query):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] > 0).astype(np.int64)
        trees = [
            DecisionTreeClassifier(max_depth=4, random_state=i).fit(
                X, y, sample_weight=rng.integers(1, 4, size=80).astype(float)
            )
            for i in range(n_trees)
        ]
        flat = FlatTrees.from_arrays(
            [(t.tree_feature_, t.tree_threshold_, t.tree_left_, t.tree_right_)
             for t in trees],
            [t.tree_value_ for t in trees],
        )
        Xq = make_query(rng, n_query, 5)
        leaves = flat.apply(Xq)
        for j, tree in enumerate(trees):
            # Flat leaf ids are global; subtract the tree offset.
            np.testing.assert_array_equal(
                leaves[:, j] - flat.offsets[j], reference_apply(tree, Xq)
            )

    def test_single_leaf_tree(self):
        X = np.zeros((10, 3))
        y = np.zeros(10, dtype=np.int64)  # one class -> root is a leaf
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.n_leaves_ == 1
        Xq = np.array([[np.nan, np.inf, -np.inf], [0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(tree._apply(Xq), [0, 0])
        flat = FlatTrees.from_arrays(
            [(tree.tree_feature_, tree.tree_threshold_,
              tree.tree_left_, tree.tree_right_)],
            [tree.tree_value_],
        )
        np.testing.assert_array_equal(flat.apply(Xq), [[0], [0]])

    def test_zero_rows(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        y = (X[:, 0] > 0).astype(np.int64)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        flat = FlatTrees.from_arrays(
            [(tree.tree_feature_, tree.tree_threshold_,
              tree.tree_left_, tree.tree_right_)],
            [tree.tree_value_],
        )
        assert flat.apply(np.empty((0, 4))).shape == (0, 1)


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(11)
    n, d = 400, 12
    X = rng.normal(size=(n, d))
    X[:, :4] = np.round(X[:, :4] * 2.0) / 2.0
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.int64)
    return X, y


class TestForestEquivalence:
    @pytest.mark.parametrize("method", ["exact", "hist"])
    @pytest.mark.parametrize("n_query", [1, 7, 200])
    def test_flat_bitwise_equals_reference(self, training_data, method, n_query):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=21, min_samples_leaf=4, tree_method=method,
            random_state=0,
        ).fit(X, y)
        Xq = np.random.default_rng(5).normal(size=(n_query, X.shape[1]))
        np.testing.assert_array_equal(
            forest.predict_proba(Xq), reference_forest_proba(forest, Xq)
        )

    def test_hist_forest_float_path_equals_reference(self, training_data):
        """Hist-mode trees store raw bin-edge thresholds, so the float
        walk serves them bitwise like exact trees."""
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=13, min_samples_leaf=4, tree_method="hist",
            random_state=2,
        ).fit(X, y)
        Xq = np.random.default_rng(7).normal(size=(150, X.shape[1]))
        np.testing.assert_array_equal(
            forest.predict_proba(Xq), reference_forest_proba(forest, Xq)
        )

    def test_parallel_path_matches_flat_path(self, training_data):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=20, min_samples_leaf=4, random_state=4
        ).fit(X, y)
        Xq = np.random.default_rng(9).normal(size=(25, X.shape[1]))
        serial = forest.predict_proba(Xq)
        forest.n_jobs = 2
        try:
            pooled = forest.predict_proba(Xq)
        finally:
            forest.n_jobs = None
        np.testing.assert_array_equal(serial, pooled)

        # n_jobs governs fit only: a forest fitted with workers predicts
        # in-process, without starting a pool per call.
        pooled_fit = RandomForestClassifier(
            n_estimators=20, min_samples_leaf=4, random_state=4, n_jobs=2
        ).fit(X, y)
        obs.reset()
        obs.enable()
        try:
            proba = pooled_fit.predict_proba(Xq)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters.get("parallel.pool_runs", 0.0) == 0.0
        np.testing.assert_array_equal(proba, serial)

    def test_refit_invalidates_compile(self, training_data):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=5, min_samples_leaf=4, random_state=5
        ).fit(X, y)
        Xq = np.random.default_rng(10).normal(size=(10, X.shape[1]))
        forest.predict_proba(Xq)  # builds the compile
        forest.fit(X[:200], y[:200])
        assert forest._flat_forest_ is None
        np.testing.assert_array_equal(
            forest.predict_proba(Xq), reference_forest_proba(forest, Xq)
        )


class TestBoostingEquivalence:
    def test_gbm_bitwise_equals_per_tree_loop(self, training_data):
        X, y = training_data
        gbm = GradientBoostingClassifier(
            n_estimators=15, max_depth=4, random_state=0
        ).fit(X, y)
        Xq = np.random.default_rng(12).normal(size=(80, X.shape[1]))
        raw = np.full(Xq.shape[0], gbm.base_score_)
        for tree in gbm.trees_:
            leaves = tree_apply(
                np.asarray(tree.feature), np.asarray(tree.threshold),
                np.asarray(tree.left), np.asarray(tree.right), Xq,
            )
            raw += gbm.learning_rate * np.asarray(tree.leaf_value)[leaves]
        np.testing.assert_array_equal(gbm.decision_function(Xq), raw)

    @pytest.mark.parametrize("algorithm", ["SAMME", "SAMME.R"])
    def test_adaboost_equals_per_learner_loop(self, training_data, algorithm):
        X, y = training_data
        model = AdaBoostClassifier(
            n_estimators=8, algorithm=algorithm, random_state=0
        ).fit(X, y)
        Xq = np.random.default_rng(13).normal(size=(60, X.shape[1]))
        k = len(model.classes_)
        scores = np.zeros((Xq.shape[0], k))
        if algorithm == "SAMME":
            for learner, alpha in zip(
                model.estimators_, model.estimator_weights_
            ):
                scores[np.arange(Xq.shape[0]), learner.predict(Xq)] += alpha
        else:
            for learner in model.estimators_:
                log_proba = np.log(
                    np.clip(learner.predict_proba(Xq), 1e-12, 1.0)
                )
                scores += (k - 1.0) * (
                    log_proba - log_proba.mean(axis=1, keepdims=True)
                )
        np.testing.assert_array_equal(model._decision_scores(Xq), scores)


class TestPickle:
    def test_compile_dropped_and_rebuilt(self, training_data):
        import pickle

        X, y = training_data
        for model in (
            RandomForestClassifier(
                n_estimators=5, min_samples_leaf=4, tree_method="hist",
                random_state=6,
            ).fit(X, y),
            GradientBoostingClassifier(
                n_estimators=5, max_depth=3, random_state=6
            ).fit(X, y),
            AdaBoostClassifier(n_estimators=4, random_state=6).fit(X, y),
        ):
            Xq = np.random.default_rng(14).normal(size=(20, X.shape[1]))
            expected = model.predict_proba(Xq)
            clone = pickle.loads(pickle.dumps(model))
            assert "_flat_forest_" not in clone.__dict__
            assert "_flat_trees_" not in clone.__dict__
            np.testing.assert_array_equal(clone.predict_proba(Xq), expected)
