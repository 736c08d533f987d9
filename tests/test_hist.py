"""Histogram-binned training: binning contract, hist-vs-exact agreement,
determinism across ``n_jobs``, and the exact-mode bitwise fingerprint."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.ml.binning import Binner
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbm import GradientBoostingClassifier
from repro.ml.metrics import f1_score
from repro.ml.tree import DecisionTreeClassifier

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))
FINGERPRINT_PATH = Path(__file__).parent / "data" / "exact_fingerprint.json"


@pytest.fixture(scope="module")
def wide_data():
    """A synthetic corpus wide enough for hist binning to matter."""
    rng = np.random.default_rng(11)
    n, d = 1500, 60
    X = rng.normal(size=(n, d))
    X[:, :10] = np.round(X[:, :10] * 4.0) / 4.0  # low-cardinality block
    logits = X[:, 0] + 0.8 * X[:, 1] * X[:, 2] - 0.5 * np.abs(X[:, 3])
    y = (logits + 0.25 * rng.normal(size=n) > 0).astype(np.int64)
    return X[:1000], y[:1000], X[1000:], y[1000:]


class TestBinner:
    def test_edges_strictly_increasing(self, wide_data):
        X = wide_data[0]
        binner = Binner().fit(X)
        for edges in binner.bin_edges_:
            assert np.all(np.diff(edges) > 0)
            assert np.all(np.isfinite(edges))

    def test_code_threshold_contract(self, wide_data):
        """code(x) <= b must be exactly x <= bin_edges_[f][b]."""
        X = wide_data[0]
        binner = Binner(max_bins=16).fit(X)
        codes = binner.transform(X)
        for f in (0, 5, 30):
            edges = binner.bin_edges_[f]
            for b in range(len(edges)):
                np.testing.assert_array_equal(
                    codes[:, f] <= b, X[:, f] <= edges[b]
                )

    def test_low_cardinality_uses_midpoints(self):
        column = np.array([0.0, 0.0, 1.0, 1.0, 3.0])
        binner = Binner().fit(column[:, None])
        np.testing.assert_allclose(binner.bin_edges_[0], [0.5, 2.0])

    def test_quantile_path_caps_bins(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 1))
        binner = Binner(max_bins=32).fit(X)
        assert binner.n_bins_[0] <= 32
        assert len(binner.bin_edges_[0]) >= 16  # quantiles spread out

    def test_constant_feature_gets_single_bin(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        binner = Binner().fit(X)
        assert binner.n_bins_[0] == 1
        assert np.all(binner.transform(X)[:, 0] == 0)

    def test_nan_maps_to_top_bin(self):
        X = np.array([[0.0], [1.0], [2.0], [np.nan]])
        binner = Binner().fit(X)
        codes = binner.transform(X)
        assert codes[3, 0] == len(binner.bin_edges_[0])
        assert codes[3, 0] == codes[:, 0].max()

    def test_infinities_land_in_extreme_bins(self):
        X = np.array([[0.0], [1.0], [2.0]])
        binner = Binner().fit(X)
        codes = binner.transform(np.array([[-np.inf], [np.inf]]))
        assert codes[0, 0] == 0
        assert codes[1, 0] == len(binner.bin_edges_[0])

    def test_quantiles_match_numpy(self):
        rng = np.random.default_rng(3)
        column = rng.normal(size=4000)
        binner = Binner(max_bins=64).fit(column[:, None])
        expected = np.quantile(column, np.linspace(0, 1, 65)[1:-1])
        expected = np.unique(expected)
        expected = expected[expected < column.max()]
        np.testing.assert_allclose(binner.bin_edges_[0], expected)

    def test_pack_unpack_roundtrip(self, wide_data):
        binner = Binner(max_bins=16).fit(wide_data[0])
        values, offsets = binner.pack()
        unpacked = Binner.unpack(values, offsets)
        assert len(unpacked) == len(binner.bin_edges_)
        for original, restored in zip(binner.bin_edges_, unpacked):
            np.testing.assert_array_equal(original, restored)

    def test_max_bins_validation(self):
        with pytest.raises(ValueError, match="max_bins"):
            Binner(max_bins=1)
        with pytest.raises(ValueError, match="max_bins"):
            Binner(max_bins=300)


class TestHistVsExact:
    def test_identical_predictions_on_separable_data(self):
        """Few distinct values -> midpoint edges -> identical trees."""
        rng = np.random.default_rng(5)
        X = rng.integers(0, 8, size=(400, 6)).astype(np.float64)
        y = (X[:, 0] + X[:, 1] >= 8).astype(np.int64)
        exact = DecisionTreeClassifier(random_state=0).fit(X, y)
        hist = DecisionTreeClassifier(
            tree_method="hist", random_state=0
        ).fit(X, y)
        grid = rng.uniform(-1, 9, size=(500, 6))
        np.testing.assert_array_equal(exact.predict(grid), hist.predict(grid))

    def test_tree_f1_close(self, wide_data):
        X_train, y_train, X_test, y_test = wide_data
        params = dict(min_samples_leaf=10, random_state=0)
        exact = DecisionTreeClassifier(**params).fit(X_train, y_train)
        hist = DecisionTreeClassifier(tree_method="hist", **params).fit(
            X_train, y_train
        )
        f1_exact = f1_score(y_test, exact.predict(X_test))
        f1_hist = f1_score(y_test, hist.predict(X_test))
        assert abs(f1_exact - f1_hist) < 0.05

    def test_forest_f1_close(self, wide_data):
        X_train, y_train, X_test, y_test = wide_data
        params = dict(
            n_estimators=30,
            min_samples_leaf=10,
            criterion="entropy",
            random_state=0,
        )
        exact = RandomForestClassifier(**params).fit(X_train, y_train)
        hist = RandomForestClassifier(tree_method="hist", **params).fit(
            X_train, y_train
        )
        f1_exact = f1_score(y_test, exact.predict(X_test))
        f1_hist = f1_score(y_test, hist.predict(X_test))
        assert abs(f1_exact - f1_hist) < 0.03

    def test_hist_predicts_on_raw_features(self, wide_data):
        """Thresholds are reconstructed: raw X in, no re-binning."""
        X_train, y_train, X_test, _ = wide_data
        hist = DecisionTreeClassifier(
            tree_method="hist", max_depth=6, random_state=0
        ).fit(X_train, y_train)
        split_features = hist.tree_feature_[hist.tree_feature_ >= 0]
        assert split_features.size > 0
        proba = hist.predict_proba(X_test)
        assert proba.shape == (X_test.shape[0], 2)

    def test_hist_sample_weight(self, wide_data):
        X_train, y_train, _, _ = wide_data
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 2.0, size=len(y_train))
        tree = DecisionTreeClassifier(
            tree_method="hist", max_depth=5, random_state=0
        ).fit(X_train, y_train, sample_weight=weights)
        assert tree.score(X_train, y_train) > 0.7

    def test_hist_rejects_random_splitter(self):
        with pytest.raises(ValueError, match="random"):
            DecisionTreeClassifier(
                tree_method="hist", splitter="random"
            ).fit(np.zeros((4, 2)), [0, 1, 0, 1])

    def test_invalid_tree_method(self):
        with pytest.raises(ValueError, match="tree_method"):
            DecisionTreeClassifier(tree_method="gpu").fit(
                np.zeros((4, 2)), [0, 1, 0, 1]
            )
        with pytest.raises(ValueError, match="tree_method"):
            RandomForestClassifier(tree_method="gpu").fit(
                np.zeros((4, 2)), [0, 1, 0, 1]
            )
        with pytest.raises(ValueError, match="tree_method"):
            GradientBoostingClassifier(tree_method="gpu").fit(
                np.zeros((4, 2)), [0, 1, 0, 1]
            )


class TestEnsembleHist:
    def test_gbm_hist_close_to_exact(self, wide_data):
        X_train, y_train, X_test, y_test = wide_data
        params = dict(n_estimators=20, max_depth=4, random_state=0)
        exact = GradientBoostingClassifier(**params).fit(X_train, y_train)
        hist = GradientBoostingClassifier(tree_method="hist", **params).fit(
            X_train, y_train
        )
        f1_exact = f1_score(y_test, exact.predict(X_test))
        f1_hist = f1_score(y_test, hist.predict(X_test))
        assert abs(f1_exact - f1_hist) < 0.05

    def test_gbm_hist_subsample(self, wide_data):
        X_train, y_train, X_test, y_test = wide_data
        model = GradientBoostingClassifier(
            n_estimators=15, max_depth=3, subsample=0.7,
            tree_method="hist", random_state=0,
        ).fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.6

    def test_adaboost_hist_both_algorithms(self, wide_data):
        X_train, y_train, X_test, y_test = wide_data
        for algorithm in ("SAMME", "SAMME.R"):
            model = AdaBoostClassifier(
                n_estimators=10, algorithm=algorithm,
                DT_tree_method="hist", random_state=0,
            ).fit(X_train, y_train)
            assert f1_score(y_test, model.predict(X_test)) > 0.6


def _tree_digest(tree) -> str:
    digest = hashlib.sha256()
    for array in (
        tree.tree_feature_,
        tree.tree_threshold_,
        tree.tree_left_,
        tree.tree_right_,
        tree.tree_value_,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _forest_digest(forest) -> str:
    digest = hashlib.sha256()
    for tree in forest.estimators_:
        digest.update(_tree_digest(tree).encode())
    return digest.hexdigest()


class TestHistDeterminism:
    """Extends the PR-2 contract: hist results are bitwise identical at
    every ``n_jobs`` (binning happens once in the parent)."""

    def test_forest_bitwise_across_n_jobs(self, wide_data):
        X_train, y_train, X_test, _ = wide_data
        forests = [
            RandomForestClassifier(
                n_estimators=8,
                min_samples_leaf=5,
                tree_method="hist",
                random_state=3,
                n_jobs=jobs,
            ).fit(X_train, y_train)
            for jobs in (1, JOBS)
        ]
        assert _forest_digest(forests[0]) == _forest_digest(forests[1])
        np.testing.assert_array_equal(
            forests[0].predict_proba(X_test), forests[1].predict_proba(X_test)
        )

    def test_tree_refit_is_bitwise_stable(self, wide_data):
        X_train, y_train, _, _ = wide_data
        first = DecisionTreeClassifier(
            tree_method="hist", max_features="sqrt", random_state=9
        ).fit(X_train, y_train)
        second = DecisionTreeClassifier(
            tree_method="hist", max_features="sqrt", random_state=9
        ).fit(X_train, y_train)
        assert _tree_digest(first) == _tree_digest(second)


class TestExactFingerprint:
    """Pin default exact-mode output bitwise against the stored digests
    captured from pre-histogram ``main`` (no refactor of the splitter
    or the walk may change a single bit)."""

    @pytest.fixture(scope="class")
    def fingerprint_data(self):
        rng = np.random.default_rng(20260806)
        n, d = 600, 24
        X = rng.normal(size=(n, d))
        X[:, :8] = np.round(X[:, :8] * 2.0) / 2.0  # heavy ties
        logits = (
            X[:, 0] + 0.9 * X[:, 1] * X[:, 2] - 0.6 * np.abs(X[:, 3]) + X[:, 5]
        )
        y = (logits + 0.2 * rng.normal(size=n) > 0).astype(np.int64)
        weights = rng.integers(1, 5, size=n).astype(np.float64) / 2.0
        return X, y, weights

    @pytest.fixture(scope="class")
    def stored(self):
        return json.loads(FINGERPRINT_PATH.read_text())["cases"]

    @pytest.mark.parametrize(
        "case, params, weighted",
        [
            ("tree_default", {"random_state": 0}, False),
            (
                "tree_entropy_depth8_leaf5",
                {
                    "criterion": "entropy",
                    "max_depth": 8,
                    "min_samples_leaf": 5,
                    "random_state": 1,
                },
                False,
            ),
            ("tree_sqrt_features", {"max_features": "sqrt", "random_state": 2}, False),
            ("tree_sample_weight", {"random_state": 3}, True),
            ("tree_balanced", {"class_weight": "balanced", "random_state": 4}, False),
            (
                "tree_min_impurity",
                {"min_impurity_decrease": 0.01, "random_state": 5},
                False,
            ),
        ],
    )
    def test_tree_cases(self, fingerprint_data, stored, case, params, weighted):
        X, y, weights = fingerprint_data
        tree = DecisionTreeClassifier(**params)
        tree.fit(X, y, sample_weight=weights if weighted else None)
        assert _tree_digest(tree) == stored[case], (
            f"exact-mode output changed for {case}; the default tree_method "
            "must stay bitwise identical across releases"
        )

    @pytest.mark.parametrize(
        "case, params",
        [
            (
                "forest_small",
                {"n_estimators": 12, "min_samples_leaf": 4, "random_state": 0},
            ),
            (
                "forest_entropy_leaf20",
                {
                    "n_estimators": 8,
                    "min_samples_leaf": 20,
                    "criterion": "entropy",
                    "random_state": 7,
                },
            ),
        ],
    )
    def test_forest_cases(self, fingerprint_data, stored, case, params):
        X, y, _ = fingerprint_data
        forest = RandomForestClassifier(**params).fit(X, y)
        assert _forest_digest(forest) == stored[case], (
            f"exact-mode output changed for {case}; the default tree_method "
            "must stay bitwise identical across releases"
        )

    @pytest.fixture(scope="class")
    def stored_proba(self):
        return json.loads(FINGERPRINT_PATH.read_text())["proba_cases"]

    @pytest.mark.parametrize(
        "case, params, weighted",
        [
            ("tree_default", {"random_state": 0}, False),
            (
                "tree_entropy_depth8_leaf5",
                {
                    "criterion": "entropy",
                    "max_depth": 8,
                    "min_samples_leaf": 5,
                    "random_state": 1,
                },
                False,
            ),
            ("tree_sqrt_features", {"max_features": "sqrt", "random_state": 2}, False),
            ("tree_sample_weight", {"random_state": 3}, True),
            ("tree_balanced", {"class_weight": "balanced", "random_state": 4}, False),
            (
                "tree_min_impurity",
                {"min_impurity_decrease": 0.01, "random_state": 5},
                False,
            ),
        ],
    )
    def test_tree_proba_cases(
        self, fingerprint_data, stored_proba, case, params, weighted
    ):
        X, y, weights = fingerprint_data
        tree = DecisionTreeClassifier(**params)
        tree.fit(X, y, sample_weight=weights if weighted else None)
        proba = tree.predict_proba(X)
        digest = hashlib.sha256(
            np.ascontiguousarray(proba).tobytes()
        ).hexdigest()
        assert digest == stored_proba[case], (
            f"predict_proba output changed for {case}; the inference path "
            "(flat traversal included) must stay bitwise identical to the "
            "historical per-tree walk"
        )

    @pytest.mark.parametrize(
        "case, params",
        [
            (
                "forest_small",
                {"n_estimators": 12, "min_samples_leaf": 4, "random_state": 0},
            ),
            (
                "forest_entropy_leaf20",
                {
                    "n_estimators": 8,
                    "min_samples_leaf": 20,
                    "criterion": "entropy",
                    "random_state": 7,
                },
            ),
        ],
    )
    def test_forest_proba_cases(self, fingerprint_data, stored_proba, case, params):
        X, y, _ = fingerprint_data
        forest = RandomForestClassifier(**params).fit(X, y)
        proba = forest.predict_proba(X)
        digest = hashlib.sha256(
            np.ascontiguousarray(proba).tobytes()
        ).hexdigest()
        assert digest == stored_proba[case], (
            f"predict_proba output changed for {case}; the inference path "
            "(flat traversal included) must stay bitwise identical to the "
            "historical per-tree walk"
        )
