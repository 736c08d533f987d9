"""Tests for the random forest."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score


class TestAccuracy:
    def test_beats_chance_comfortably(self, binary_data):
        X_train, y_train, X_test, y_test = binary_data
        forest = RandomForestClassifier(n_estimators=25, random_state=0)
        forest.fit(X_train, y_train)
        assert accuracy_score(y_test, forest.predict(X_test)) > 0.85

    def test_deterministic_given_seed(self, binary_data):
        X_train, y_train, X_test, _ = binary_data
        a = RandomForestClassifier(n_estimators=10, random_state=42).fit(
            X_train, y_train
        )
        b = RandomForestClassifier(n_estimators=10, random_state=42).fit(
            X_train, y_train
        )
        assert np.array_equal(a.predict(X_test), b.predict(X_test))

    def test_probabilities_valid(self, binary_data):
        X_train, y_train, X_test, _ = binary_data
        forest = RandomForestClassifier(n_estimators=10, random_state=0)
        forest.fit(X_train, y_train)
        proba = forest.predict_proba(X_test)
        assert proba.shape == (len(X_test), 2)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_no_bootstrap_mode(self, binary_data):
        X_train, y_train, X_test, y_test = binary_data
        forest = RandomForestClassifier(
            n_estimators=8, bootstrap=False, random_state=0
        ).fit(X_train, y_train)
        assert accuracy_score(y_test, forest.predict(X_test)) > 0.8


class TestImportances:
    def test_top_features_finds_signal(self):
        generator = np.random.default_rng(1)
        X = generator.normal(size=(600, 20))
        y = ((X[:, 4] + X[:, 9]) > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
        top = set(forest.top_features(4).tolist())
        assert {4, 9} <= top

    def test_importances_normalized(self, binary_data):
        X_train, y_train, _, _ = binary_data
        forest = RandomForestClassifier(n_estimators=10, random_state=0)
        forest.fit(X_train, y_train)
        assert np.isclose(forest.feature_importances_.sum(), 1.0)


class TestClassWeights:
    @pytest.mark.parametrize("mode", ["balanced", "subsample", None])
    def test_modes_accepted(self, mode, binary_data):
        X_train, y_train, _, _ = binary_data
        forest = RandomForestClassifier(
            n_estimators=5, class_weight=mode, random_state=0
        )
        forest.fit(X_train, y_train)
        assert forest.score(X_train, y_train) > 0.8

    def test_imbalanced_data_survives_bootstrap(self):
        # 2% positives: many bootstraps will be single-class; trees must
        # degrade to leaves instead of crashing.
        generator = np.random.default_rng(3)
        X = generator.normal(size=(300, 4))
        y = np.zeros(300, dtype=int)
        y[:6] = 1
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert forest.predict(X).shape == (300,)


class TestErrors:
    def test_zero_estimators(self):
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestClassifier(n_estimators=0).fit(np.zeros((4, 1)), [0, 1, 0, 1])

    def test_feature_mismatch_at_predict(self, binary_data):
        X_train, y_train, _, _ = binary_data
        forest = RandomForestClassifier(n_estimators=3, random_state=0)
        forest.fit(X_train, y_train)
        with pytest.raises(ValueError, match="features"):
            forest.predict(np.zeros((2, X_train.shape[1] + 1)))
