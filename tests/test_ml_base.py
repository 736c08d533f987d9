"""Tests for the estimator plumbing in repro.ml.base."""

import numpy as np
import pytest

from repro.ml.base import (
    BaseEstimator,
    NotFittedError,
    check_array,
    check_is_fitted,
    check_random_state,
    check_sample_weight,
    check_X_y,
    clone,
    compute_sample_weight,
)
from repro.ml.binning import Binner
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


class _Toy(BaseEstimator):
    def __init__(self, alpha=1.0, beta="x"):
        self.alpha = alpha
        self.beta = beta


class TestParams:
    def test_get_params_returns_constructor_args(self):
        assert _Toy(alpha=2.0).get_params() == {"alpha": 2.0, "beta": "x"}

    def test_set_params_roundtrip(self):
        toy = _Toy().set_params(alpha=5.0, beta="y")
        assert toy.alpha == 5.0 and toy.beta == "y"

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="Invalid parameter"):
            _Toy().set_params(gamma=1)

    def test_clone_copies_params_not_state(self):
        toy = _Toy(alpha=3.0)
        toy.fitted_ = True
        copy = clone(toy)
        assert copy.alpha == 3.0
        assert not hasattr(copy, "fitted_")

    def test_repr_contains_params(self):
        assert "alpha=3.0" in repr(_Toy(alpha=3.0))


class TestValidation:
    def test_check_array_rejects_1d(self):
        with pytest.raises(ValueError, match="2D"):
            check_array(np.zeros(5))

    def test_check_array_rejects_nan(self):
        X = np.zeros((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            check_array(X)

    def test_check_array_rejects_inf(self):
        X = np.zeros((3, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError):
            check_array(X)

    def test_check_X_y_length_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            check_X_y(np.zeros((4, 2)), np.zeros(3))

    def test_check_X_y_flattens_y(self):
        _, y = check_X_y(np.zeros((4, 2)), np.zeros((4, 1)))
        assert y.ndim == 1

    def test_check_X_y_empty(self):
        with pytest.raises(ValueError, match="0 samples"):
            check_X_y(np.zeros((0, 2)), np.zeros(0))

    def test_check_is_fitted(self):
        toy = _Toy()
        with pytest.raises(NotFittedError):
            check_is_fitted(toy, "coef_")
        toy.coef_ = np.ones(2)
        check_is_fitted(toy, "coef_")  # no raise


class TestRandomState:
    def test_accepts_int(self):
        assert isinstance(check_random_state(3), np.random.Generator)

    def test_passthrough_generator(self):
        generator = np.random.default_rng(0)
        assert check_random_state(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)


class TestSampleWeight:
    def test_none_weight_is_uniform(self):
        y = np.array([0, 0, 1])
        assert np.allclose(compute_sample_weight(None, y), 1.0)

    def test_balanced_weights_rebalance(self):
        y = np.array([0, 0, 0, 1])
        weights = compute_sample_weight("balanced", y)
        # Total weight per class must be equal.
        assert np.isclose(weights[y == 0].sum(), weights[y == 1].sum())

    def test_dict_weights(self):
        y = np.array([0, 1, 1])
        weights = compute_sample_weight({0: 2.0, 1: 0.5}, y)
        assert np.allclose(weights, [2.0, 0.5, 0.5])

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            compute_sample_weight("bogus", np.array([0, 1]))


def _fit_tree(X, y, sample_weight):
    DecisionTreeClassifier(random_state=0).fit(X, y, sample_weight=sample_weight)


def _fit_hist_tree(X, y, sample_weight):
    binner = Binner().fit(X)
    DecisionTreeClassifier(tree_method="hist", random_state=0).fit_binned(
        binner.transform(X), binner.bin_edges_, y, sample_weight=sample_weight
    )


def _fit_forest(X, y, sample_weight):
    RandomForestClassifier(n_estimators=3, random_state=0).fit(
        X, y, sample_weight=sample_weight
    )


def _fit_hist_forest(X, y, sample_weight):
    RandomForestClassifier(n_estimators=3, tree_method="hist", random_state=0).fit(
        X, y, sample_weight=sample_weight
    )


class TestCheckSampleWeight:
    """Bad weights fail loudly on every estimator entry point; before
    the check, too many weights fitted silently, too few raised a bare
    ``IndexError`` in the forest, one weight was broadcast by the tree,
    and NaN or negative weights fitted silently."""

    BAD_WEIGHTS = {
        "too many": (np.ones(60), "60 entries but there are 50"),
        "too few": (np.ones(40), "40 entries but there are 50"),
        "one": (np.ones(1), "1 entries but there are 50"),
        "2-D": (np.ones((50, 1)), "1D"),
        "NaN": (np.where(np.arange(50) == 7, np.nan, 1.0), "NaN"),
        "inf": (np.where(np.arange(50) == 7, np.inf, 1.0), "infinity"),
        "negative": (np.where(np.arange(50) == 7, -0.5, 1.0), "negative"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
    @pytest.mark.parametrize(
        "fit", [_fit_tree, _fit_hist_tree, _fit_forest, _fit_hist_forest]
    )
    def test_estimators_reject_bad_weights(self, fit, case):
        generator = np.random.default_rng(0)
        X = generator.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        weight, message = self.BAD_WEIGHTS[case]
        with pytest.raises(ValueError, match=message):
            fit(X, y, weight)

    def test_none_is_unit_weights(self):
        np.testing.assert_array_equal(check_sample_weight(None, 4), np.ones(4))

    def test_valid_weights_pass_through(self):
        weight = np.array([0.0, 1.5, 2.0])
        assert check_sample_weight(weight, 3) is weight
        assert check_sample_weight([1, 0, 2], 3).dtype == np.float64
