"""Tests for the CART decision tree."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.gbm import GradientBoostingClassifier
from repro.ml.metrics import accuracy_score
from repro.ml.tree import DecisionTreeClassifier


class TestFitting:
    def test_memorizes_clean_data(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(random_state=0)
        tree.fit(X_train, y_train)
        assert tree.score(X_train, y_train) > 0.99

    def test_generalizes(self, binary_data):
        X_train, y_train, X_test, y_test = binary_data
        tree = DecisionTreeClassifier(max_depth=8, random_state=0)
        tree.fit(X_train, y_train)
        assert accuracy_score(y_test, tree.predict(X_test)) > 0.8

    def test_entropy_criterion_works(self, binary_data):
        X_train, y_train, X_test, y_test = binary_data
        tree = DecisionTreeClassifier(criterion="entropy", max_depth=8, random_state=0)
        tree.fit(X_train, y_train)
        assert accuracy_score(y_test, tree.predict(X_test)) > 0.8

    def test_invalid_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="mse").fit(np.zeros((4, 1)), [0, 1, 0, 1])

    def test_single_class_becomes_leaf(self):
        tree = DecisionTreeClassifier()
        tree.fit(np.arange(6).reshape(-1, 1), np.zeros(6))
        assert tree.n_nodes_ == 1
        assert np.all(tree.predict(np.array([[0.0], [99.0]])) == 0)

    def test_string_labels_roundtrip(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["ok", "ok", "sat", "sat"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert list(tree.predict(X)) == ["ok", "ok", "sat", "sat"]


class TestStructureConstraints:
    def test_max_depth_respected(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X_train, y_train)
        assert tree.depth_ <= 3

    def test_min_samples_leaf(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(min_samples_leaf=50, random_state=0)
        tree.fit(X_train, y_train)
        # Every leaf's training share must be at least min_samples_leaf,
        # so the tree cannot have more than n/50 leaves.
        n_leaves = int(np.sum(tree.tree_feature_ == -1))
        assert n_leaves <= len(y_train) // 50

    def test_min_samples_split_blocks_small_nodes(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier(min_samples_split=100).fit(X, y)
        assert tree.n_nodes_ == 1  # root cannot split

    def test_stump_prediction_shape(self, binary_data):
        X_train, y_train, X_test, _ = binary_data
        tree = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X_train, y_train)
        proba = tree.predict_proba(X_test)
        assert proba.shape == (len(X_test), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestImportances:
    def test_importances_sum_to_one(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X_train, y_train)
        assert np.isclose(tree.feature_importances_.sum(), 1.0)

    def test_informative_feature_ranks_first(self):
        generator = np.random.default_rng(0)
        X = generator.normal(size=(500, 5))
        y = (X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2


class TestSampleWeights:
    def test_weights_shift_decision(self):
        # Two overlapping points; weighting one class heavily must win.
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        weights = np.array([10.0, 0.1, 10.0, 0.1])
        tree = DecisionTreeClassifier().fit(X, y, sample_weight=weights)
        assert np.all(tree.predict(X) == 0)

    def test_class_weight_balanced_accepted(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(class_weight="balanced", max_depth=4,
                                      random_state=0)
        tree.fit(X_train, y_train)
        assert tree.score(X_train, y_train) > 0.7


class TestErrors:
    def test_predict_before_fit(self):
        with pytest.raises(Exception, match="not fitted"):
            DecisionTreeClassifier().predict(np.zeros((2, 2)))

    def test_feature_count_mismatch(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(max_depth=2, random_state=0).fit(X_train, y_train)
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((2, 3)))

    def test_max_features_sqrt(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=0)
        tree.fit(X_train, y_train)
        assert tree.score(X_train, y_train) > 0.9

    def test_bad_max_features(self, binary_data):
        X_train, y_train, _, _ = binary_data
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeClassifier(max_features="bogus").fit(X_train, y_train)


class TestRandomSplitter:
    """splitter='random' draws one uniform threshold per examined
    candidate feature (extra-trees semantics)."""

    def test_fits_and_generalizes(self, binary_data):
        X_train, y_train, X_test, y_test = binary_data
        tree = DecisionTreeClassifier(
            splitter="random", max_depth=10, random_state=0
        ).fit(X_train, y_train)
        assert accuracy_score(y_test, tree.predict(X_test)) > 0.7

    def test_examines_multiple_features(self, binary_data):
        """The old implementation collapsed to a single candidate per
        node; across a whole tree the split features covered only a
        sliver of the informative columns."""
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(
            splitter="random", max_depth=12, random_state=0
        ).fit(X_train, y_train)
        used = np.unique(tree.tree_feature_[tree.tree_feature_ >= 0])
        assert used.size >= 3

    def test_thresholds_are_not_midpoints(self):
        """Random thresholds fall anywhere in the node range; a best
        split on this data would always pick the single midpoint 0.5."""
        X = np.repeat([0.0, 1.0], 50)[:, None]
        y = np.repeat([0, 1], 50)
        thresholds = [
            DecisionTreeClassifier(splitter="random", random_state=seed)
            .fit(X, y)
            .tree_threshold_[0]
            for seed in range(10)
        ]
        assert len({round(t, 12) for t in thresholds}) > 1
        assert all(0.0 <= t < 1.0 for t in thresholds)

    def test_respects_min_samples_leaf(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(
            splitter="random", min_samples_leaf=30, random_state=1
        ).fit(X_train, y_train)
        leaf_sizes = np.bincount(
            tree._apply(X_train), minlength=tree.n_nodes_
        )[tree.tree_feature_ == -1]
        assert leaf_sizes.min() >= 30

    def test_max_features_limits_candidates(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(
            splitter="random", max_features=2, max_depth=6, random_state=2
        ).fit(X_train, y_train)
        assert tree.n_nodes_ > 1

    def test_invalid_splitter(self, binary_data):
        X_train, y_train, _, _ = binary_data
        with pytest.raises(ValueError, match="splitter"):
            DecisionTreeClassifier(splitter="fancy").fit(X_train, y_train)


class TestTreeShapeProperties:
    def test_n_leaves_matches_structure(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(
            X_train, y_train
        )
        assert tree.n_leaves_ == int(np.sum(tree.tree_feature_ == -1))
        # A binary tree with L leaves has 2L - 1 nodes.
        assert tree.n_nodes_ == 2 * tree.n_leaves_ - 1

    def test_single_leaf_tree(self):
        tree = DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(5))
        assert tree.n_leaves_ == 1
        assert tree.depth_ == 0

    def test_depth_matches_manual_walk(self, binary_data):
        X_train, y_train, _, _ = binary_data
        tree = DecisionTreeClassifier(max_depth=7, random_state=0).fit(
            X_train, y_train
        )

        def walk(node):
            if tree.tree_feature_[node] == -1:
                return 0
            return 1 + max(
                walk(tree.tree_left_[node]), walk(tree.tree_right_[node])
            )

        assert tree.depth_ == walk(0)

    def test_properties_require_fit(self):
        with pytest.raises(Exception, match="not fitted"):
            DecisionTreeClassifier().n_leaves_
        with pytest.raises(Exception, match="not fitted"):
            DecisionTreeClassifier().depth_


# Two values one ulp apart whose midpoint (lo + hi) / 2.0 rounds up to hi.
_LO = 1.0 + 2.0**-52
_HI = float(np.nextafter(_LO, 2.0))
_MIDPOINT_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, RecursionError),
    reason=(
        "midpoint threshold rounds up to the upper value when the two "
        "values are 1 ulp apart, so the applied partition differs from "
        "the scored one; fix recorded under ROADMAP item 5"
    ),
)


def _one_ulp_data(copies):
    X = np.array([[_LO]] * copies + [[_HI]] * copies)
    y = np.array([0] * copies + [1] * copies)
    return X, y


class TestMidpointThresholdDefect:
    """Separable data whose only boundary is one ulp wide.

    The fix must cover the exact tree splitter (weighted or not), the
    GBM's exact splitter and the Binner's midpoint edges.
    """

    def test_midpoint_rounds_up_on_this_data(self):
        assert (_LO + _HI) / 2.0 == _HI

    @_MIDPOINT_DEFECT
    @pytest.mark.parametrize("sample_weight", [None, [1.0, 2.0]],
                             ids=["unweighted", "weighted"])
    def test_tree_separates_two_samples(self, sample_weight):
        X, y = _one_ulp_data(1)
        tree = DecisionTreeClassifier().fit(X, y, sample_weight=sample_weight)
        assert tree.score(X, y) == 1.0

    @_MIDPOINT_DEFECT
    def test_forest_separates_copies(self):
        X, y = _one_ulp_data(10)
        forest = RandomForestClassifier(random_state=0).fit(X, y)
        assert forest.score(X, y) == 1.0

    @_MIDPOINT_DEFECT
    def test_depth_limited_tree_separates_copies(self):
        X, y = _one_ulp_data(20)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.score(X, y) == 1.0

    @_MIDPOINT_DEFECT
    def test_gbm_separates_copies(self):
        X, y = _one_ulp_data(20)
        gbm = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        assert gbm.score(X, y) == 1.0

    @_MIDPOINT_DEFECT
    def test_hist_tree_separates_copies(self):
        X, y = _one_ulp_data(20)
        tree = DecisionTreeClassifier(tree_method="hist").fit(X, y)
        assert tree.score(X, y) == 1.0

    @_MIDPOINT_DEFECT
    def test_stump_applies_the_scored_partition(self):
        X = np.array([[_LO], [_HI], [2.0]] * 2)
        y = np.array([0, 1, 1] * 2)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert stump.score(X, y) == 1.0
