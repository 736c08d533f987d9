"""Named time-series containers.

:class:`MetricFrame` keeps metric matrices and their column names
together without pulling in a dataframe dependency; supports column
selection, horizontal concatenation and vertical stacking of aligned
frames.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MetricFrame", "UnknownMetricError"]


class UnknownMetricError(KeyError):
    """A metric name was requested that the frame does not carry.

    Subclasses :class:`KeyError` so historical ``except KeyError``
    handlers keep working, but the message names the missing streams
    and samples what *is* available instead of echoing one bare key.
    """

    def __init__(self, missing: list[str], available: list[str]):
        self.missing = list(missing)
        self.available = list(available)
        preview = ", ".join(sorted(available)[:8])
        if len(available) > 8:
            preview += f", ... ({len(available)} total)"
        super().__init__(
            f"Unknown metric stream(s) {sorted(missing)}; "
            f"available: [{preview}]."
        )

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return self.args[0]


class MetricFrame:
    """A ``(T, k)`` float matrix with named columns."""

    def __init__(self, values: np.ndarray, columns: list[str]):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be 2-D (time x metrics).")
        if values.shape[1] != len(columns):
            raise ValueError(
                f"{len(columns)} column names for {values.shape[1]} columns."
            )
        if len(set(columns)) != len(columns):
            raise ValueError("Column names must be unique.")
        self.values = values
        self.columns = list(columns)
        self._index = {name: i for i, name in enumerate(columns)}

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def has_metric(self, name: str) -> bool:
        """Whether a metric stream of that name is carried."""
        return name in self._index

    def column(self, name: str) -> np.ndarray:
        """One column as a 1-D array (a view)."""
        if name not in self._index:
            raise UnknownMetricError([name], self.columns)
        return self.values[:, self._index[name]]

    def select(self, names: list[str]) -> "MetricFrame":
        """A new frame with only ``names``, in the given order."""
        missing = [n for n in names if n not in self._index]
        if missing:
            raise UnknownMetricError(missing, self.columns)
        indices = [self._index[n] for n in names]
        return MetricFrame(self.values[:, indices].copy(), list(names))

    def select_available(self, names: list[str]) -> "MetricFrame":
        """Like :meth:`select`, but silently skips unknown names.

        The safe-subset accessor for degraded-mode consumers: a report
        that wants ``["cpu_rel_util", "mem_limit_util"]`` from whatever
        survived a lossy collector should summarise the columns that
        exist rather than die on the ones that do not.  Selecting zero
        known names returns an empty ``(T, 0)`` frame.
        """
        known = [n for n in names if n in self._index]
        indices = [self._index[n] for n in known]
        return MetricFrame(self.values[:, indices].copy(), known)

    def hstack(self, other: "MetricFrame") -> "MetricFrame":
        """Concatenate columns of two time-aligned frames."""
        if len(self) != len(other):
            raise ValueError("Frames must have the same number of rows.")
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise ValueError(f"Duplicate columns: {sorted(overlap)[:5]}.")
        return MetricFrame(
            np.hstack([self.values, other.values]), self.columns + other.columns
        )

    @staticmethod
    def vstack(frames: list["MetricFrame"]) -> "MetricFrame":
        """Stack frames with identical columns along time."""
        if not frames:
            raise ValueError("Need at least one frame.")
        columns = frames[0].columns
        for frame in frames[1:]:
            if frame.columns != columns:
                raise ValueError("All frames must share identical columns.")
        return MetricFrame(
            np.vstack([frame.values for frame in frames]), list(columns)
        )
