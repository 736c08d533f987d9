"""Streaming feature-distribution drift detection (PSI + KS).

The serving loop hands :class:`DriftDetector` every engineered feature
batch it classifies; the detector maintains one histogram per feature
over a rolling window of recent *clean* rows (LOCF-imputed and
chaos-blackout rows are excluded entirely, so telemetry loss can never
masquerade as distribution shift) and compares it against a frozen
reference distribution with two complementary statistics:

- **PSI** (population stability index): sensitive to mass moving
  between bins, the standard covariate-shift alarm;
- **KS**: the max CDF gap, sensitive to consistent directional shift
  even when per-bin mass changes are small.

Everything is incremental: each clean row is binned once (O(features x
bins) broadcast compare), pushed into a ring buffer of bin codes, and
the per-feature counts are updated by +-1 -- no window rescan, ever.
The statistics themselves are computed from the counts on demand.

Bin edges come from per-feature reference quantiles and rows are
binned by the same ``>=`` rule on both sides, so a zero-variance
feature lands its entire mass -- reference and live alike -- in one
bin and contributes exactly 0 PSI (constant features can never alarm).

The alarm requires :data:`MIN_FEATURES` simultaneously shifted
features for :data:`PATIENCE` consecutive checks over at least
:data:`MIN_ROWS` live rows: single-feature noise, near-empty windows
and one-tick blips all stay quiet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs

__all__ = [
    "N_BINS",
    "WINDOW_ROWS",
    "REFERENCE_ROWS",
    "MIN_ROWS",
    "PSI_THRESHOLD",
    "KS_THRESHOLD",
    "MIN_FEATURES",
    "PATIENCE",
    "quantile_edges",
    "bin_rows",
    "bin_counts",
    "psi_from_counts",
    "ks_from_counts",
    "StreamingHistograms",
    "DriftStatus",
    "DriftDetector",
]

#: Probability floor under the PSI log ratio; empty bins contribute a
#: large-but-finite surprise instead of an infinity.
PSI_EPSILON = 1e-4

# The detector's settings.  Window sizes are in *rows*, and the policy
# observes one row per container per tick (~7-13 for TeaStore with
# scale-out replicas).  Null-hypothesis PSI decays like
# (bins-1)(1/n_live + 1/n_ref); these sizes keep it far below the 0.25
# alarm threshold, and the live window spans about two antagonist
# periods of the drift scenario, so the on/off mixture does not wobble
# the post-promotion reference.
#: Histogram bins per feature.
N_BINS = 10
#: Clean rows in the rolling live window.
WINDOW_ROWS = 800
#: Clean rows collected from the stream before the reference freezes.
REFERENCE_ROWS = 800
#: Fewest live rows a check needs before it may count as shifted.
MIN_ROWS = 400
#: A feature is shifted when its PSI or its KS statistic exceeds these.
PSI_THRESHOLD = 0.25
KS_THRESHOLD = 0.35
#: Shifted features a check needs to count towards the alarm.
MIN_FEATURES = 8
#: Consecutive counting checks that raise the alarm.
PATIENCE = 3


# ----------------------------------------------------------------------
# Histogram primitives
# ----------------------------------------------------------------------
def quantile_edges(reference: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-feature interior bin edges from reference quantiles.

    Returns ``(n_features, n_bins - 1)``.  Duplicate edges (discrete or
    constant features) are legal: the ``>=`` binning rule then simply
    leaves some bins structurally empty on both sides.
    """
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 2 or reference.shape[0] < 1:
        raise ValueError("reference must be a non-empty (rows, features) matrix.")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2.")
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.quantile(reference, quantiles, axis=0).T.copy()


def bin_rows(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin codes in ``[0, n_bins)`` for each (row, feature) cell.

    A value lands in bin ``sum(value >= edges)`` -- identical on the
    reference and live sides, which is what makes constant features
    PSI-neutral by construction.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return (rows[:, :, None] >= edges[None, :, :]).sum(axis=2, dtype=np.int64)


def bin_counts(codes: np.ndarray, n_features: int, n_bins: int) -> np.ndarray:
    """Per-feature histogram counts ``(n_features, n_bins)`` from codes."""
    offsets = codes + np.arange(n_features, dtype=np.int64) * n_bins
    return np.bincount(
        offsets.ravel(), minlength=n_features * n_bins
    ).reshape(n_features, n_bins)


def psi_from_counts(
    reference: np.ndarray, live: np.ndarray, epsilon: float = PSI_EPSILON
) -> np.ndarray:
    """Per-feature PSI between two count matrices ``(features, bins)``.

    A side with zero total rows contributes no evidence: the result is
    all zeros rather than a spurious maximal shift.
    """
    ref_total = reference.sum(axis=1, keepdims=True)
    live_total = live.sum(axis=1, keepdims=True)
    if not ref_total.any() or not live_total.any():
        return np.zeros(reference.shape[0])
    p = np.maximum(reference / ref_total, epsilon)
    q = np.maximum(live / live_total, epsilon)
    return ((q - p) * np.log(q / p)).sum(axis=1)


def ks_from_counts(reference: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Per-feature KS statistic (max CDF gap) between count matrices."""
    ref_total = reference.sum(axis=1, keepdims=True)
    live_total = live.sum(axis=1, keepdims=True)
    if not ref_total.any() or not live_total.any():
        return np.zeros(reference.shape[0])
    ref_cdf = np.cumsum(reference, axis=1) / ref_total
    live_cdf = np.cumsum(live, axis=1) / live_total
    return np.abs(ref_cdf - live_cdf).max(axis=1)


class StreamingHistograms:
    """Rolling per-feature histograms over the last ``window`` rows.

    Pushing a row costs one binning pass plus two O(features) count
    updates (increment the new codes, decrement the evicted row's);
    the counts matrix is always exactly the histogram of the retained
    window, bitwise independent of push order history.
    """

    def __init__(self, edges: np.ndarray, window: int):
        if window < 1:
            raise ValueError("window must be >= 1.")
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 2:
            raise ValueError("edges must be (n_features, n_bins - 1).")
        self.edges = edges
        self.window = window
        self.n_features = edges.shape[0]
        self.n_bins = edges.shape[1] + 1
        self._codes = np.zeros((window, self.n_features), dtype=np.int64)
        self._total = 0
        self.counts = np.zeros((self.n_features, self.n_bins), dtype=np.int64)
        self._feature_index = np.arange(self.n_features)

    def __len__(self) -> int:
        """Rows currently retained (<= window)."""
        return min(self._total, self.window)

    def push(self, row: np.ndarray) -> None:
        """Add one clean row, evicting the oldest once at capacity."""
        codes = bin_rows(row[None, :], self.edges)[0]
        slot = self._total % self.window
        if self._total >= self.window:
            self.counts[self._feature_index, self._codes[slot]] -= 1
        self._codes[slot] = codes
        self.counts[self._feature_index, codes] += 1
        self._total += 1

    def push_many(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(rows)
        for row in rows:
            self.push(row)


@dataclass
class DriftStatus:
    """One :meth:`DriftDetector.check` verdict."""

    drifted: bool
    n_rows: int  # clean rows in the live window
    features_shifted: int  # features over either threshold
    consecutive: int  # consecutive over-threshold checks
    psi_max: float = 0.0
    ks_max: float = 0.0
    psi: np.ndarray | None = field(default=None, repr=False)
    ks: np.ndarray | None = field(default=None, repr=False)


class DriftDetector:
    """Completeness-aware streaming covariate-shift alarm.

    Reference acquisition is streaming too: until :data:`REFERENCE_ROWS`
    clean rows have arrived, :meth:`update` accumulates them as the
    reference sample (the healthy warm-up window); the quantile edges
    and reference histogram are then frozen and subsequent rows feed
    the rolling live window.

    ``update`` takes each row's completeness (fraction in [0, 1], as
    carried by the telemetry layer); a row below 1 -- any value
    imputed, held or masked -- never touches the reference or live
    window.
    """

    def __init__(self):
        self._reference_buffer: list[np.ndarray] = []
        self._reference_counts: np.ndarray | None = None
        self.live: StreamingHistograms | None = None
        self._consecutive = 0
        self.rows_skipped = 0

    @property
    def fitted(self) -> bool:
        """Whether the reference distribution is frozen."""
        return self._reference_counts is not None

    def fit_reference(self, reference: np.ndarray) -> "DriftDetector":
        """Freeze the reference distribution from a sample matrix."""
        reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
        edges = quantile_edges(reference, N_BINS)
        self._reference_counts = bin_counts(
            bin_rows(reference, edges), edges.shape[0], N_BINS
        )
        self.live = StreamingHistograms(edges, WINDOW_ROWS)
        self._reference_buffer = []
        self._consecutive = 0
        return self

    def reset_reference(self) -> None:
        """Drop reference and live state; re-collect from the stream.

        Called after a model promotion: the new champion was trained on
        the shifted distribution, so the old reference would keep the
        alarm latched forever.  The next :data:`REFERENCE_ROWS` clean
        rows become the new healthy baseline.
        """
        self._reference_buffer = []
        self._reference_counts = None
        self.live = None
        self._consecutive = 0

    def update(self, rows: np.ndarray, completeness) -> None:
        """Feed one tick's feature rows and their completeness."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        completeness = np.asarray(completeness, dtype=np.float64).ravel()
        if completeness.size != rows.shape[0]:
            raise ValueError(
                f"completeness has {completeness.size} entries for "
                f"{rows.shape[0]} rows."
            )
        clean = completeness >= 1.0
        self.rows_skipped += int((~clean).sum())
        rows = rows[clean]
        if rows.shape[0] == 0:
            return
        if not self.fitted:
            self._reference_buffer.append(rows)
            collected = sum(part.shape[0] for part in self._reference_buffer)
            if collected >= REFERENCE_ROWS:
                self.fit_reference(np.vstack(self._reference_buffer))
            return
        self.live.push_many(rows)

    def check(self) -> DriftStatus:
        """Evaluate the alarm; O(features x bins), safe to call per tick.

        Never alarms before the reference is frozen or while the live
        window holds fewer than :data:`MIN_ROWS` clean rows -- an
        all-imputed stretch (chaos blackout) empties the evidence
        rather than tripping the alarm.
        """
        if not self.fitted or len(self.live) < MIN_ROWS:
            self._consecutive = 0
            return DriftStatus(
                drifted=False,
                n_rows=0 if self.live is None else len(self.live),
                features_shifted=0,
                consecutive=0,
            )
        psi = psi_from_counts(self._reference_counts, self.live.counts)
        ks = ks_from_counts(self._reference_counts, self.live.counts)
        shifted = int(((psi > PSI_THRESHOLD) | (ks > KS_THRESHOLD)).sum())
        if shifted >= MIN_FEATURES:
            self._consecutive += 1
        else:
            self._consecutive = 0
        drifted = self._consecutive >= PATIENCE
        if obs.enabled():
            obs.set_gauge("lifecycle.psi_max", float(psi.max()))
            obs.set_gauge("lifecycle.ks_max", float(ks.max()))
            obs.set_gauge("lifecycle.features_shifted", float(shifted))
        return DriftStatus(
            drifted=drifted,
            n_rows=len(self.live),
            features_shifted=shifted,
            consecutive=self._consecutive,
            psi_max=float(psi.max()),
            ks_max=float(ks.max()),
            psi=psi,
            ks=ks,
        )
