"""Ground-truth labeling of resource saturation (paper section 2.2).

A service driven by a linearly-increasing workload shows a KPI (e.g.
throughput) that rises proportionally until a saturation knee, after
which it flattens.  The paper finds that knee with the *Kneedle*
algorithm (Satopaa et al., 2011) applied to a Savitzky-Golay-smoothed
curve:

1. smooth ``f(alpha) = beta`` with a Savitzky-Golay filter;
2. normalize both axes to the unit square;
3. compute the difference curve ``beta_i - alpha_i``;
4. candidate knees are the local maxima of that curve; the highest
   maximum's KPI value, less a small margin, is the saturation
   threshold ``Upsilon``.

Samples with KPI above ``Upsilon`` are labeled saturated (1), the rest
non-saturated (0).  Every KPI calibrated here is a throughput, which
rises with the load; the paper flips both axes for a KPI that falls
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import savgol_filter

__all__ = [
    "KneeResult",
    "kneedle",
    "KneedleLabeler",
    "MultiLevelLabeler",
    "savitzky_golay",
]

#: Savitzky-Golay window (points) and polynomial order.  The paper tunes
#: them by visual inspection; every calibration here smooths its KPI's
#: observation noise with a 21-point cubic fit.
SMOOTHING_WINDOW = 21
SMOOTHING_ORDER = 3

#: Relative slack under the knee.  A saturated system's throughput sits
#: *at* capacity, i.e. essentially at the knee, so the threshold is
#: placed 2% below it to keep capacity-pinned samples on the saturated
#: side of the measurement noise.
MARGIN = 0.02


def savitzky_golay(values: np.ndarray) -> np.ndarray:
    """Savitzky-Golay smoothing with defensive window handling.

    The window is clipped to the series length (and forced odd), so
    short calibration runs do not crash the labeler.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("savitzky_golay expects a 1-D series.")
    n = values.size
    if n < 3:
        return values.copy()
    window = min(SMOOTHING_WINDOW, n if n % 2 == 1 else n - 1)
    window = max(window, 3)
    order = min(SMOOTHING_ORDER, window - 1)
    return savgol_filter(values, window_length=window, polyorder=order)


def _normalize_unit(values: np.ndarray) -> np.ndarray:
    low, high = float(np.min(values)), float(np.max(values))
    if high == low:
        return np.zeros_like(values)
    return (values - low) / (high - low)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict-or-plateau local maxima of a 1-D series."""
    n = values.size
    if n < 3:
        return np.array([], dtype=np.int64)
    left = np.r_[True, values[1:] >= values[:-1]]
    right = np.r_[values[:-1] >= values[1:], True]
    interior = np.zeros(n, dtype=bool)
    interior[1:-1] = True
    candidates = left & right & interior
    # Collapse plateaus to their first index.
    indices = np.flatnonzero(candidates)
    if indices.size == 0:
        return indices
    keep = [indices[0]]
    for idx in indices[1:]:
        if idx != keep[-1] + 1 or values[idx] != values[keep[-1]]:
            keep.append(idx)
    return np.asarray(keep, dtype=np.int64)


@dataclass(frozen=True)
class KneeResult:
    """Outcome of one Kneedle run.

    Attributes
    ----------
    knee_index:
        Index of the chosen knee in the input arrays.
    knee_x, knee_y:
        Workload intensity and smoothed KPI value at the knee (the
        saturation threshold :math:`\\Upsilon` is ``knee_y`` less
        :data:`MARGIN`).
    smoothed:
        The Savitzky-Golay-smoothed KPI curve.
    difference:
        The normalized difference curve ``beta - alpha``.
    candidates:
        Indices of all local maxima of the difference curve.
    """

    knee_index: int
    knee_x: float
    knee_y: float
    smoothed: np.ndarray
    difference: np.ndarray
    candidates: np.ndarray


def kneedle(x: np.ndarray, y: np.ndarray) -> KneeResult:
    """Find the knee of a KPI-vs-workload curve.

    ``x`` is the workload intensity, ``y`` the observed KPI.  Where the
    paper "manually chooses" among the difference curve's local maxima,
    this takes the highest.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length.")
    if x.size < 5:
        raise ValueError("Need at least 5 points to locate a knee.")

    smoothed = savitzky_golay(y)
    difference = _normalize_unit(smoothed) - _normalize_unit(x)
    candidates = _local_maxima(difference)
    if candidates.size == 0:
        # Degenerate (e.g. perfectly linear) curve: fall back to the
        # global maximum of the difference curve.
        candidates = np.asarray([np.argmax(difference)], dtype=np.int64)
    knee_index = int(candidates[np.argmax(difference[candidates])])

    return KneeResult(
        knee_index=knee_index,
        knee_x=float(x[knee_index]),
        knee_y=float(smoothed[knee_index]),
        smoothed=smoothed,
        difference=difference,
        candidates=candidates,
    )


class KneedleLabeler:
    """Derive the saturation threshold from a linear-ramp calibration run
    and label arbitrary KPI series against it.

    This is the paper's :math:`\\tilde{\\mathcal{P}}_{\\mathcal{A}}`:
    ``label(t) = 1`` iff ``kpi(t) > Upsilon``, with ``Upsilon`` the
    knee's KPI value less :data:`MARGIN`.
    """

    def __init__(self):
        self.threshold_: float | None = None
        self.knee_: KneeResult | None = None

    def fit(self, workload: np.ndarray, kpi: np.ndarray) -> "KneedleLabeler":
        """Run Kneedle on a calibration ramp to obtain ``threshold_``."""
        self.knee_ = kneedle(workload, kpi)
        self.threshold_ = self.knee_.knee_y * (1.0 - MARGIN)
        return self

    def label(self, kpi: np.ndarray) -> np.ndarray:
        """Binary saturation labels for a KPI series (1 = saturated)."""
        if self.threshold_ is None:
            raise RuntimeError("KneedleLabeler must be fitted first.")
        kpi = np.asarray(kpi, dtype=np.float64)
        return (kpi > self.threshold_).astype(np.int64)

    def fit_label(self, workload, kpi) -> np.ndarray:
        """Fit on the run and label the same run."""
        return self.fit(workload, kpi).label(kpi)


class MultiLevelLabeler:
    """Multi-class saturation states (paper section 2.2's note that
    "one can also apply more complex state descriptions based on
    multiple classes").

    Splits the KPI range below the Kneedle threshold into graded
    levels: with ``levels=(0.7,)`` the classes are

    - 0 (*normal*):    kpi <= 0.7 * Upsilon
    - 1 (*warning*):   0.7 * Upsilon < kpi <= Upsilon
    - 2 (*saturated*): kpi > Upsilon

    Any strictly-increasing tuple of fractions in (0, 1) works; the
    number of classes is ``len(levels) + 2``.
    """

    def __init__(self, levels: tuple[float, ...] = (0.7,)):
        if not levels:
            raise ValueError("levels must contain at least one fraction.")
        if any(not 0.0 < level < 1.0 for level in levels):
            raise ValueError("levels must be fractions in (0, 1).")
        if list(levels) != sorted(set(levels)):
            raise ValueError("levels must be strictly increasing.")
        self.levels = tuple(levels)
        self._binary = KneedleLabeler()
        self.boundaries_: np.ndarray | None = None

    @property
    def n_classes(self) -> int:
        return len(self.levels) + 2

    def fit(self, workload: np.ndarray, kpi: np.ndarray) -> "MultiLevelLabeler":
        """Calibrate the saturation threshold and the graded boundaries."""
        self._binary.fit(workload, kpi)
        upsilon = self._binary.threshold_
        self.boundaries_ = np.asarray(
            [fraction * upsilon for fraction in self.levels] + [upsilon]
        )
        return self

    @property
    def threshold_(self) -> float:
        if self.boundaries_ is None:
            raise RuntimeError("MultiLevelLabeler must be fitted first.")
        return float(self.boundaries_[-1])

    def label(self, kpi: np.ndarray) -> np.ndarray:
        """Class index per sample: 0 = normal ... n-1 = saturated."""
        if self.boundaries_ is None:
            raise RuntimeError("MultiLevelLabeler must be fitted first.")
        kpi = np.asarray(kpi, dtype=np.float64)
        return np.searchsorted(self.boundaries_, kpi, side="left").astype(
            np.int64
        )

    def to_binary(self, labels: np.ndarray) -> np.ndarray:
        """Collapse graded labels back to the paper's binary task."""
        labels = np.asarray(labels)
        return (labels >= self.n_classes - 1).astype(np.int64)
