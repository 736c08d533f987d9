"""Estimator plumbing shared by every model in :mod:`repro.ml`.

Mirrors the small slice of the scikit-learn estimator contract that the
rest of the repository relies on: constructor-args-are-hyperparameters,
``get_params``/``set_params``, and :func:`clone` for model selection.
"""

from __future__ import annotations

import inspect
from typing import Any

import numpy as np

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "NotFittedError",
    "check_X_y",
    "check_array",
    "check_is_fitted",
    "check_sample_weight",
    "clone",
]


class NotFittedError(RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


def check_array(X: Any, *, dtype=np.float64, ensure_2d: bool = True) -> np.ndarray:
    """Convert ``X`` to a contiguous float array and validate its shape."""
    X = np.asarray(X, dtype=dtype)
    if ensure_2d:
        if X.ndim == 1:
            raise ValueError(
                "Expected a 2D array; reshape your data with X.reshape(-1, 1) "
                "for a single feature or X.reshape(1, -1) for a single sample."
            )
        if X.ndim != 2:
            raise ValueError(f"Expected a 2D array, got {X.ndim}D.")
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError("Input contains NaN or infinity.")
    return np.ascontiguousarray(X)


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / label vector pair."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]} labels."
        )
    if X.shape[0] == 0:
        raise ValueError("Cannot fit with 0 samples.")
    return X, y


def check_sample_weight(sample_weight: Any, n_samples: int) -> np.ndarray:
    """Validate per-sample weights; ``None`` means unit weights.

    Returns a float64 vector of length ``n_samples``.  Anything else --
    another length, another dimensionality, a NaN, an infinity or a
    negative weight -- raises a ``ValueError`` naming the problem.
    """
    if sample_weight is None:
        return np.ones(n_samples)
    weight = np.asarray(sample_weight, dtype=np.float64)
    if weight.ndim != 1:
        raise ValueError(
            f"sample_weight must be 1D; got a {weight.ndim}D array."
        )
    if weight.shape[0] != n_samples:
        raise ValueError(
            f"sample_weight has {weight.shape[0]} entries but there are "
            f"{n_samples} samples."
        )
    if not np.all(np.isfinite(weight)):
        raise ValueError("sample_weight contains NaN or infinity.")
    if np.any(weight < 0.0):
        raise ValueError("sample_weight contains negative weights.")
    return weight


def check_is_fitted(estimator: Any, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has ``attribute``."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first."
        )


class BaseEstimator:
    """Base class providing parameter introspection for all estimators.

    Subclasses must accept every hyper-parameter as an explicit keyword
    argument in ``__init__`` and store it under the same name, which is
    what makes :func:`clone` and grid search possible.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, param in signature.parameters.items()
            if name != "self" and param.kind != inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self) -> dict[str, Any]:
        """Return the estimator's hyper-parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyper-parameters; unknown names raise ``ValueError``."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"Invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}."
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Adds ``score`` (accuracy) and label-encoding helpers."""

    def score(self, X, y) -> float:
        """Mean accuracy of ``self.predict(X)`` against ``y``."""
        y = np.asarray(y).ravel()
        return float(np.mean(self.predict(X) == y))

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        """Store ``classes_`` and return labels as indices 0..n_classes-1."""
        self.classes_, encoded = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2:
            raise ValueError(
                "Classifier requires at least 2 classes in the training data; "
                f"got {len(self.classes_)}."
            )
        return encoded.astype(np.int64)


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy of ``estimator`` with identical parameters."""
    return type(estimator)(**estimator.get_params())


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` (None, int, or Generator) into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def compute_sample_weight(class_weight, y: np.ndarray) -> np.ndarray:
    """Per-sample weights for ``class_weight`` in {None, 'balanced', dict}.

    ``'balanced'`` replicates scikit-learn: ``n / (k * bincount(y))``.
    """
    n = y.shape[0]
    if class_weight is None:
        return np.ones(n)
    classes, counts = np.unique(y, return_counts=True)
    if class_weight == "balanced" or class_weight == "balanced_subsample" \
            or class_weight == "subsample":
        per_class = n / (len(classes) * counts)
        weight_of = dict(zip(classes.tolist(), per_class.tolist()))
    elif isinstance(class_weight, dict):
        weight_of = {c: class_weight.get(c, 1.0) for c in classes.tolist()}
    else:
        raise ValueError(f"Unsupported class_weight: {class_weight!r}")
    table = np.array([weight_of[c] for c in classes.tolist()])
    index = np.searchsorted(classes, y)
    return table[index]
