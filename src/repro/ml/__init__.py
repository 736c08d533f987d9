"""From-scratch machine-learning substrate with a scikit-learn-like API.

The paper's prototype uses scikit-learn, XGBoost and Keras.  None of
those are available offline, so this package reimplements the required
estimators on top of numpy:

- :class:`repro.ml.tree.DecisionTreeClassifier` -- CART with gini or
  entropy splitting and two training modes (``tree_method="exact"`` /
  ``"hist"``; the latter trains on a quantile-binned ``uint8`` matrix
  built by :class:`repro.ml.binning.Binner`).
- :class:`repro.ml.forest.RandomForestClassifier` -- bagged CART trees
  with feature importances, class weights and probability predictions.
- :mod:`repro.ml.flatforest` -- trees compiled to one contiguous
  struct-of-arrays and traversed all-rows x all-trees in one batched
  kernel; the only traversal behind every tree model here (a single
  tree or boosting round walks a one-tree compile).
- :class:`repro.ml.boosting.AdaBoostClassifier` -- SAMME / SAMME.R.
- :class:`repro.ml.gbm.GradientBoostingClassifier` -- second-order
  (XGBoost-style) boosted trees with ``min_child_weight`` and ``gamma``.
- :class:`repro.ml.linear.LogisticRegression` -- SAG-style solver.
- :class:`repro.ml.linear.LinearSVC` -- hinge-loss linear classifier.
- :class:`repro.ml.neural.MLPClassifier` -- three-layer fully-connected
  network with selectable activations.
- :mod:`repro.ml.preprocessing` -- ``MinMaxScaler`` / ``StandardScaler``.
- :mod:`repro.ml.decomposition` -- ``PCA``.
- :mod:`repro.ml.model_selection` -- ``KFold``, ``GroupKFold``,
  ``GridSearchCV``, ``cross_val_score``.
- :mod:`repro.ml.metrics` -- accuracy, precision/recall/F1, confusion
  matrices.
"""

from repro.ml.base import BaseEstimator, ClassifierMixin, clone
from repro.ml.binning import Binner
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.decomposition import PCA
from repro.ml.flatforest import FlatForest, FlatTrees
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbm import GradientBoostingClassifier
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.neural import MLPClassifier
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "clone",
    "Binner",
    "FlatForest",
    "FlatTrees",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "AdaBoostClassifier",
    "GradientBoostingClassifier",
    "LogisticRegression",
    "LinearSVC",
    "MLPClassifier",
    "MinMaxScaler",
    "StandardScaler",
    "PCA",
]
