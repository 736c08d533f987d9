"""The node-batched exact splitter against the per-feature loop.

Exact-mode trees must not change by a bit when the splitter scores a
node's candidates in one pass instead of one feature at a time, and a
forest's trees must not change when they grow on the shared training
matrix through their bootstrap rows instead of on a copy of those rows.
The reference is the historical loop in :mod:`tests.tree_reference`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _split_impurities
from tests.tree_reference import loop_split_impurities, loop_splitter

TREE_ARRAYS = (
    "tree_feature_",
    "tree_threshold_",
    "tree_left_",
    "tree_right_",
    "tree_value_",
    "feature_importances_",
)


def assert_same_tree(a, b):
    """Bitwise equality of two fitted trees (classes and flat arrays)."""
    np.testing.assert_array_equal(a.classes_, b.classes_)
    for name in TREE_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


@st.composite
def tree_problems(draw):
    """Small data sets with tie-heavy and constant columns.

    Labels mix a signal in the first columns with label noise, so trees
    grow deep and split on every column kind.
    """
    n = draw(st.integers(2, 300))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.sampled_from([2, 3]))
    kinds = draw(
        st.lists(
            st.sampled_from(["continuous", "ties", "constant"]),
            min_size=n_features,
            max_size=n_features,
        )
    )
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = gen.normal(size=(n, n_features))
    for j, kind in enumerate(kinds):
        if kind == "ties":
            X[:, j] = np.round(X[:, j] * draw(st.integers(1, 3)))
        elif kind == "constant":
            X[:, j] = draw(st.sampled_from([0.0, -1.5, 7.0]))
    signal = np.digitize(X.sum(axis=1), np.linspace(-1.0, 1.0, n_classes - 1))
    noisy = gen.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    y = np.where(noisy, gen.integers(0, n_classes, n), signal)
    return X, y, gen


tree_params = st.fixed_dictionaries(
    {
        "criterion": st.sampled_from(["gini", "entropy"]),
        "max_features": st.sampled_from([None, "sqrt", 1, 3]),
        "min_samples_leaf": st.sampled_from([1, 3, 20]),
        "min_impurity_decrease": st.sampled_from([0.0, 0.01]),
    }
)


def _weights(weighting, n, gen):
    """(sample_weight, class_weight) for one weighting scheme.

    ``none`` and ``uniform`` give every sample the same weight, so tie
    order inside a node's sort cannot move a prefix sum; the other
    schemes make it matter, and the splitter must still match the loop.
    """
    if weighting == "none":
        return None, None
    if weighting == "uniform":
        return np.full(n, 2.5), None
    if weighting == "bootstrap":
        # Bootstrap counts: duplicated samples, and zero-weight ones.
        return np.bincount(gen.integers(0, n, n), minlength=n).astype(float), None
    if weighting == "positive":
        return gen.uniform(0.1, 3.0, n), None
    return None, "balanced"


@pytest.mark.parametrize(
    "weighting", ["none", "uniform", "bootstrap", "positive", "balanced"]
)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(problem=tree_problems(), params=tree_params, seed=st.integers(0, 2**16))
def test_batched_splitter_matches_the_loop(weighting, problem, params, seed):
    X, y, gen = problem
    sample_weight, class_weight = _weights(weighting, X.shape[0], gen)
    rng_batched = np.random.default_rng(seed)
    rng_loop = np.random.default_rng(seed)
    batched = DecisionTreeClassifier(
        **params, class_weight=class_weight, random_state=rng_batched
    ).fit(X, y, sample_weight=sample_weight)
    with loop_splitter():
        loop = DecisionTreeClassifier(
            **params, class_weight=class_weight, random_state=rng_loop
        ).fit(X, y, sample_weight=sample_weight)
    assert_same_tree(batched, loop)
    # One permutation draw per split node, on both paths.
    assert rng_batched.bit_generator.state == rng_loop.bit_generator.state


def test_block_budget_splits_wide_nodes(monkeypatch):
    """Full-width nodes wider than the block budget score in several
    blocks and still match the loop."""
    import repro.ml.tree as tree_module

    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 64)
    gen = np.random.default_rng(5)
    X = np.round(gen.normal(size=(120, 9)) * 2.0)
    y = (X[:, 0] + X[:, 1] + gen.normal(size=120) > 0).astype(int)
    weight = gen.uniform(0.5, 2.0, 120)
    for sample_weight in (None, weight):
        batched = DecisionTreeClassifier(random_state=3).fit(
            X, y, sample_weight=sample_weight
        )
        with loop_splitter():
            loop = DecisionTreeClassifier(random_state=3).fit(
                X, y, sample_weight=sample_weight
            )
        assert_same_tree(batched, loop)


@pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 17])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_class_major_kernel_matches_row_major(n_classes, criterion):
    """The class-major impurity kernel equals the row-major one bit for
    bit, below and above numpy's eight-term pairwise-summation cutoff."""
    gen = np.random.default_rng(n_classes)
    left = np.cumsum(gen.integers(0, 3, (400, n_classes)) * 0.7, axis=0)
    left[:5] = 0.0  # empty sides
    right = left[-1] - left
    expected = loop_split_impurities(left, right, criterion)
    actual = _split_impurities(
        np.ascontiguousarray(left.T), np.ascontiguousarray(right.T), criterion
    )
    for a, b in zip(actual, expected):
        assert a.tobytes() == b.tobytes()


def _bootstrap_rows(forest, n):
    """Replay the forest's pre-drawn bootstrap rows and split seeds."""
    rng = np.random.default_rng(forest.random_state)
    draws = []
    for _ in range(forest.n_estimators):
        rows = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        draws.append((rows, int(rng.integers(0, 2**31 - 1))))
    return draws


@pytest.mark.parametrize(
    "params",
    [
        {"random_state": 0},
        {"max_features": None, "min_samples_leaf": 3, "criterion": "entropy",
         "random_state": 1},
        {"class_weight": "balanced", "random_state": 2},
        {"class_weight": "balanced_subsample", "random_state": 3},
        {"bootstrap": False, "max_depth": 6, "random_state": 4},
    ],
)
@pytest.mark.parametrize("weighted", [False, True])
def test_forest_trees_equal_fits_on_bootstrap_copies(params, weighted):
    """Each copy-free tree equals a tree fitted on its bootstrap rows."""
    gen = np.random.default_rng(11)
    n = 160
    X = np.round(gen.normal(size=(n, 7)) * 3.0) / 3.0
    labels = np.array(["idle", "busy", "saturated"])
    y = labels[np.digitize(X[:, 0] + X[:, 1] * X[:, 2], [-0.5, 0.8])]
    sample_weight = gen.uniform(0.2, 2.0, n) if weighted else None
    forest = RandomForestClassifier(n_estimators=5, **params).fit(
        X, y, sample_weight=sample_weight
    )

    y_encoded = np.searchsorted(forest.classes_, y)
    base = np.ones(n) if sample_weight is None else sample_weight
    if forest.class_weight == "balanced":
        base = base * (n / (3 * np.bincount(y_encoded)))[y_encoded]
    for tree, (rows, seed) in zip(
        forest.estimators_, _bootstrap_rows(forest, n)
    ):
        assert tree.random_state == seed
        weight = base[rows]
        if forest.class_weight == "balanced_subsample":
            counts = np.bincount(y_encoded[rows], minlength=3)
            present = counts > 0
            per_class = np.zeros(3)
            per_class[present] = n / (present.sum() * counts[present])
            weight = weight * per_class[y_encoded[rows]]
        copy = DecisionTreeClassifier(**tree.get_params()).fit(
            X[rows], y_encoded[rows], sample_weight=weight
        )
        assert_same_tree(tree, copy)
