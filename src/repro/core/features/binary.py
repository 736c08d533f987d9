"""Hot-encoded utilization-level features (paper section 3.3.1).

CPU and memory utilization are strong saturation indicators; the paper
augments each CPU/memory utilization metric (host and container) with
boolean level features:

- ``LOW``    utilization < 50%
- ``MEDIUM`` 50% <= utilization <= 80%
- ``HIGH``   utilization > 80%

and, for CPU only, additionally:

- ``VERYHIGH``  utilization > 90%
- ``EXTREME``   utilization > 95%

Host + container CPU (5 each) and host + container memory (3 each)
yield the paper's 16 additional binary features.  Table 4 shows the
paper also refers to EXTREME as ``SUPERHIGH``; we keep ``EXTREME``.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.meta import Domain, FeatureMeta

__all__ = ["BinaryLevelFeatures", "CPU_LEVELS", "MEMORY_LEVELS"]

# (suffix, lower bound exclusive, upper bound inclusive); None = unbounded.
CPU_LEVELS: list[tuple[str, float | None, float | None]] = [
    ("LOW", None, 50.0),
    ("MEDIUM", 50.0, 80.0),
    ("HIGH", 80.0, None),
    ("VERYHIGH", 90.0, None),
    ("EXTREME", 95.0, None),
]
MEMORY_LEVELS: list[tuple[str, float | None, float | None]] = [
    ("LOW", None, 50.0),
    ("MEDIUM", 50.0, 80.0),
    ("HIGH", 80.0, None),
]


def _level_column(values: np.ndarray, low, high) -> np.ndarray:
    mask = np.ones_like(values, dtype=bool)
    if low is not None:
        mask &= values > low
    if high is not None:
        mask &= values <= high
    return mask.astype(np.float64)


class BinaryLevelFeatures:
    """Append level indicators for every CPU/memory utilization column.

    Stateless between fit and transform (thresholds are fixed by the
    paper), but follows the fit/transform protocol so the pipeline can
    treat all steps uniformly.
    """

    def fit(self, X: np.ndarray, meta: list[FeatureMeta], y=None) -> "BinaryLevelFeatures":
        self.input_meta_ = list(meta)
        self.source_columns_: list[tuple[int, list]] = []
        for index, feature in enumerate(meta):
            if not feature.utilization:
                continue
            if feature.domain == Domain.CPU:
                self.source_columns_.append((index, CPU_LEVELS))
            elif feature.domain == Domain.MEMORY:
                self.source_columns_.append((index, MEMORY_LEVELS))
        return self

    def transform(
        self, X: np.ndarray, meta: list[FeatureMeta]
    ) -> tuple[np.ndarray, list[FeatureMeta]]:
        if not hasattr(self, "source_columns_"):
            raise RuntimeError("BinaryLevelFeatures must be fitted first.")
        if X.shape[1] != len(self.input_meta_):
            raise ValueError(
                f"X has {X.shape[1]} columns; step was fitted with "
                f"{len(self.input_meta_)}."
            )
        new_columns: list[np.ndarray] = []
        new_meta: list[FeatureMeta] = []
        for index, levels in self.source_columns_:
            source = self.input_meta_[index]
            prefix = "C" if source.scope.value == "container" else "H"
            kind = "CPU" if source.domain == Domain.CPU else "MEM"
            for suffix, low, high in levels:
                new_columns.append(_level_column(X[:, index], low, high))
                new_meta.append(
                    FeatureMeta(
                        name=f"{prefix}-{kind}-{suffix}",
                        domain=source.domain,
                        scope=source.scope,
                        binary=True,
                    )
                )
        if not new_columns:
            return X, list(meta)
        return (
            np.column_stack([X, np.column_stack(new_columns)]),
            list(meta) + new_meta,
        )

    def fit_transform(self, X, meta, y=None):
        return self.fit(X, meta, y).transform(X, meta)
