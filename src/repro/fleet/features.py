"""Batched feature engineering: a fitted pipeline run tick by tick
over the whole fleet matrix.

One :class:`FleetPipelineStream` serves every container.  It compiles
the fitted pipeline into a column plan once: every output feature is
traced back through the zero-variance and second-reduction selections,
the interaction pairs, the temporal blocks and the first reduction to
the raw and level columns it reads, and each tick computes only those.
A filter reduction (or a missing one) selects columns; a PCA reduction
projects, through the fitted
:class:`~repro.core.features.selection.PCAReducer`, every column it was
fitted on.  The plan runs the steps' own rules for level indicators,
log scaling and projection; standardization, pair products and column
copies are elementwise.

Each matrix row is an independent series, so every per-row output is
bitwise identical to a per-container pipeline stream (the reference in
``tests/serving_reference.py``) fed the same rows, and to the batch
``transform`` of that container's whole series.  A PCA projection is
one matrix product over a batch of rows, so its outputs may differ in
the last bits (within 1e-9 relative).  The temporal step is the only
stateful one: :class:`FleetTemporalState` computes
:meth:`~repro.core.features.temporal.TemporalFeatures.transform`'s
AVG/LAG columns one tick at a time, over per-row tick counters and
``(ring, n_rows, k)`` ring buffers, with the batch path's
cumulative-difference + window-extremes-clamp arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.features.binary import _level_column
from repro.core.features.meta import FeatureMeta
from repro.core.features.pipeline import MonitorlessPipeline
from repro.core.features.scaling import log_scale
from repro.core.features.selection import PCAReducer

__all__ = ["FleetTemporalState", "FleetPipelineStream"]

#: Float64 values (32 MiB) a chunk of rows may hold across the plan's
#: raw, plain and output matrices: a push is split into chunks of
#: ``_CHUNK_VALUES // width`` rows, ``width`` being one row's share.
_CHUNK_VALUES = 1 << 22


def _reduction(reducer, n_in: int, step: str):
    """A fitted reduction step as ``(inputs, projection)``: the input
    columns it reads -- the ones a filter (or a missing step) keeps, or
    all ``n_in`` for a ``PCAReducer`` -- and the reducer that projects
    them, if any."""
    if reducer is None:
        return np.arange(n_in, dtype=np.intp), None
    if isinstance(reducer, PCAReducer):
        return np.arange(n_in, dtype=np.intp), reducer
    if hasattr(reducer, "selected_"):
        return np.asarray(reducer.selected_, dtype=np.intp), None
    raise TypeError(
        f"pipeline.{step} is a {type(reducer).__name__}, which neither "
        "selects columns nor is a PCAReducer; the fleet cannot serve it."
    )


class FleetTemporalState:
    """Per-row O(1) rolling AVG/LAG state: one fleet-wide struct of
    rings (running cumulative sums, recent cumulative and raw rows, each
    series' first row)."""

    def __init__(self, n_columns: int, windows: tuple[int, ...],
                 capacity: int):
        self.windows = tuple(windows)
        self.n_columns = n_columns
        max_window = max(windows) if windows else 1
        self._ring_cum = max_window + 2
        self._ring_raw = max_window + 1
        self.t = np.zeros(capacity, dtype=np.int64)
        self.cumulative = np.zeros((capacity, n_columns))
        self._cum_ring = np.zeros((self._ring_cum, capacity, n_columns))
        self._raw_ring = np.zeros((self._ring_raw, capacity, n_columns))
        self._first = np.zeros((capacity, n_columns))

    @property
    def capacity(self) -> int:
        return self.t.shape[0]

    def grow(self, capacity: int) -> None:
        if capacity <= self.capacity:
            return
        old = self.capacity
        for name in ("cumulative", "_first"):
            fresh = np.zeros((capacity, self.n_columns))
            fresh[:old] = getattr(self, name)
            setattr(self, name, fresh)
        for name, rings in (("_cum_ring", self._ring_cum),
                            ("_raw_ring", self._ring_raw)):
            fresh = np.zeros((rings, capacity, self.n_columns))
            fresh[:, :old] = getattr(self, name)
            setattr(self, name, fresh)
        t = np.zeros(capacity, dtype=np.int64)
        t[:old] = self.t
        self.t = t

    def reset_rows(self, rows: np.ndarray) -> None:
        self.t[rows] = 0
        self.cumulative[rows] = 0.0
        self._cum_ring[:, rows] = 0.0
        self._raw_ring[:, rows] = 0.0
        self._first[rows] = 0.0

    def push_blocks(self, rows: np.ndarray,
                    source: np.ndarray) -> list[np.ndarray]:
        """Advance ``rows`` by one tick each and return the AVG/LAG
        blocks in the batch transform's column order (``avg_x, lag_x``
        per window)."""
        t = self.t[rows]  # 0-based tick index of the rows being pushed
        cum = self.cumulative[rows] + source
        self.cumulative[rows] = cum
        self._cum_ring[t % self._ring_cum, rows] = cum
        self._raw_ring[t % self._ring_raw, rows] = source
        first = t == 0
        if first.any():
            self._first[rows[first]] = source[first]
        self.t[rows] = t + 1

        blocks: list[np.ndarray] = []
        warm = cum / (t + 1)[:, None]
        for x_value in self.windows:
            before = self._cum_ring[(t - x_value - 1) % self._ring_cum, rows]
            averaged = np.where(
                (t > x_value)[:, None], (cum - before) / (x_value + 1), warm
            )
            # The same window-extremes clamp as the batch path: min
            # and max are exact, so gathering ring rows one offset at a
            # time (masked to the warm-up length) matches the stacked
            # reduction bit for bit.
            lo = source.copy()
            hi = source.copy()
            for offset in range(1, x_value + 1):
                gathered = self._raw_ring[(t - offset) % self._ring_raw, rows]
                mask = (offset <= t)[:, None]
                np.minimum(lo, gathered, out=lo, where=mask)
                np.maximum(hi, gathered, out=hi, where=mask)
            blocks.append(np.clip(averaged, lo, hi))
            lag = self._raw_ring[(t - x_value) % self._ring_raw, rows]
            blocks.append(
                np.where((t >= x_value)[:, None], lag, self._first[rows])
            )
        return blocks


class FleetPipelineStream:
    """Incremental fleet-matrix execution of a fitted pipeline.

    Feeds ``(m, n_raw)`` row batches (one tick per row per push)
    through the compiled column plan and stores the engineered rows in
    :attr:`features`.  NaN inputs are masked to each row's last clean
    input (0.0 before one exists) *before* the temporal step: a NaN in
    the cumulative sums would poison every later rolling feature.
    """

    def __init__(
        self,
        pipeline: MonitorlessPipeline,
        input_meta: list[FeatureMeta],
        capacity: int = 64,
    ):
        if not hasattr(pipeline, "variance_"):
            raise RuntimeError("Pipeline must be fit_transform-ed first.")
        self.pipeline = pipeline
        self.n_raw = len(input_meta)
        self.n_features = pipeline.variance_.selected_.size
        self._compile()
        self.temporal = (
            FleetTemporalState(
                self._temporal_src.size, pipeline.temporal_.windows, capacity
            )
            if self._temporal_src.size
            else None
        )
        self._last_clean = np.zeros((capacity, self._raw_cols.size))
        self._has_clean = np.zeros(capacity, dtype=bool)
        self.imputed_ticks = np.zeros(capacity, dtype=np.int64)
        self.ticks = np.zeros(capacity, dtype=np.int64)
        self.features = np.zeros((capacity, self.n_features))
        self.has_features = np.zeros(capacity, dtype=bool)

    @property
    def capacity(self) -> int:
        return self._has_clean.shape[0]

    def grow(self, capacity: int) -> None:
        if capacity <= self.capacity:
            return
        old = self.capacity
        for name, width in (("_last_clean", self._last_clean.shape[1]),
                            ("features", self.n_features)):
            fresh = np.zeros((capacity, width))
            fresh[:old] = getattr(self, name)
            setattr(self, name, fresh)
        for name, dtype in (("_has_clean", bool), ("has_features", bool),
                            ("imputed_ticks", np.int64), ("ticks", np.int64)):
            fresh = np.zeros(capacity, dtype=dtype)
            fresh[:old] = getattr(self, name)
            setattr(self, name, fresh)
        if self.temporal is not None:
            self.temporal.grow(capacity)

    def reset_rows(self, rows) -> None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        self._last_clean[rows] = 0.0
        self._has_clean[rows] = False
        self.imputed_ticks[rows] = 0
        self.ticks[rows] = 0
        self.features[rows] = 0.0
        self.has_features[rows] = False
        if self.temporal is not None:
            self.temporal.reset_rows(rows)

    def push_rows(self, rows: np.ndarray, raw: np.ndarray,
                  completeness: np.ndarray) -> None:
        """One tick for ``rows``: raw metric rows -> engineered rows.

        ``raw`` and ``completeness`` are the emitted slices aligned
        with ``rows``.  Rows are pushed in chunks that bound the plan's
        transient matrices; chunking is a row partition over
        row-independent math, so it changes no bit of a filter
        pipeline's output.
        """
        if rows.size == 0:
            return
        with obs.trace("fleet.push_rows"):
            for lo in range(0, rows.size, self._rows_per_chunk):
                chunk = slice(lo, lo + self._rows_per_chunk)
                self._push_chunk(
                    rows[chunk], raw[chunk], completeness[chunk]
                )
        obs.inc("fleet.rows_pushed", float(rows.size))

    # ------------------------------------------------------------------
    # The compiled column plan
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Trace the output columns back to the raw columns they read.

        Coordinates, outermost first: the post-interaction matrix
        (``w_t`` plain columns, then one product per pair); its plain
        part, the post-reduction matrix (``k1`` columns) followed by
        ``2 * len(windows)`` temporal blocks of ``k_t`` columns; and the
        post-scaler matrix (``n_raw`` raw columns, then the level
        indicators).  A selecting reduction maps each needed coordinate
        to one input column; a projection needs all of its inputs.
        """
        p = self.pipeline
        n_raw = self.n_raw
        level_defs = [
            (index, low, high)
            for index, levels in p.binary_.source_columns_
            for (_suffix, low, high) in levels
        ]
        inputs1, self._project1 = _reduction(
            p.reduction1_, n_raw + len(level_defs), "reduction1_"
        )
        k1 = inputs1.size if self._project1 is None else self._project1.keep_
        temporal = p.temporal_
        t_cols = np.asarray(
            temporal.columns_ if temporal is not None else [], dtype=np.intp
        )
        k_t = t_cols.size
        n_blocks = 2 * len(temporal.windows) if temporal is not None else 0
        w_t = k1 + n_blocks * k_t
        pairs = p.interactions_.pairs_ if p.interactions_ is not None else []
        left = np.asarray([i for i, _ in pairs], dtype=np.intp)
        right = np.asarray([j for _, j in pairs], dtype=np.intp)
        inputs2, self._project2 = _reduction(
            p.reduction2_, w_t + left.size, "reduction2_"
        )
        # The post-interaction coordinates the plan builds, in output
        # order: the finally selected ones, or every one a projection
        # reads (the variance selection then applies to its output).
        self._variance = np.asarray(p.variance_.selected_, dtype=np.intp)
        coords = (
            inputs2 if self._project2 is not None else inputs2[self._variance]
        )
        is_plain = coords < w_t
        pair = coords[~is_plain] - w_t
        plain = np.unique(np.concatenate(
            [coords[is_plain], left[pair], right[pair]]
        ))
        direct = plain[plain < k1]
        block, column = np.divmod(plain[plain >= k1] - k1, max(k_t, 1))
        tsub = np.unique(column)  # the temporal columns read

        # Post-reduction columns -> columns of the first stage's output:
        # the post-scaler matrix for a selection, the components for a
        # projection.
        if self._project1 is not None:
            q_cols = inputs1
            stage1 = np.arange(k1, dtype=np.intp)
        else:
            q_cols = np.unique(inputs1[np.concatenate([direct, t_cols[tsub]])])
            stage1 = np.searchsorted(q_cols, inputs1)
        values = q_cols[q_cols < n_raw]
        levels = [level_defs[q - n_raw] for q in q_cols[q_cols >= n_raw]]
        self._raw_cols = np.union1d(
            values, np.asarray([src for src, _, _ in levels], dtype=np.intp)
        )
        self._value_raw = np.searchsorted(self._raw_cols, values)
        self._log_pos = np.flatnonzero(np.isin(values, p.log_.columns_))
        self._levels = [
            (values.size + i, int(np.searchsorted(self._raw_cols, src)),
             low, high)
            for i, (src, low, high) in enumerate(levels)
        ]
        scaler = p.scaler_
        self._mean = scaler.mean_[q_cols] if scaler is not None else None
        self._std = scaler.std_[q_cols] if scaler is not None else None
        self._n_q = q_cols.size
        self._direct_dst = np.searchsorted(plain, direct)
        self._direct_src = stage1[direct]
        self._temporal_src = stage1[t_cols[tsub]]
        self._n_plain = plain.size
        self._blocks = [
            (np.searchsorted(plain, k1 + b * k_t + column[block == b]),
             np.searchsorted(tsub, column[block == b]))
            for b in range(n_blocks)
        ]
        self._n_coords = coords.size
        self._plain_dst = np.flatnonzero(is_plain)
        self._plain_src = np.searchsorted(plain, coords[is_plain])
        self._pair_dst = np.flatnonzero(~is_plain)
        self._pair_left = np.searchsorted(plain, left[pair])
        self._pair_right = np.searchsorted(plain, right[pair])
        width = self._raw_cols.size + plain.size + coords.size
        self._rows_per_chunk = max(1, _CHUNK_VALUES // width)

    def _push_chunk(self, rows, raw, completeness) -> None:
        sub = raw[:, self._raw_cols].astype(np.float64, copy=True)
        # One reduction instead of a full-width isnan: a non-finite row
        # sum flags every row that *might* contain NaN (NaN propagates;
        # inf/overflow rows are also flagged), then the exact per-row
        # isnan runs only on the flagged rows.
        suspect = ~np.isfinite(raw.sum(axis=1))
        nan_rows = np.zeros(raw.shape[0], dtype=bool)
        if suspect.any():
            nan_rows[suspect] = np.isnan(raw[suspect]).any(axis=1)
        if nan_rows.any():
            sub_nan = np.isnan(sub)
            fill = np.where(
                self._has_clean[rows][:, None], self._last_clean[rows], 0.0
            )
            sub[sub_nan] = fill[sub_nan]
        self._last_clean[rows] = sub
        self._has_clean[rows] = True
        imputed = (np.asarray(completeness) < 1.0) | nan_rows
        self.imputed_ticks[rows] += imputed
        self.ticks[rows] += 1

        m = sub.shape[0]
        Xq = np.empty((m, self._n_q))
        Xq[:, : self._value_raw.size] = sub[:, self._value_raw]
        if self._log_pos.size:
            Xq[:, self._log_pos] = log_scale(Xq[:, self._log_pos])
        for pos, src, low, high in self._levels:
            Xq[:, pos] = _level_column(sub[:, src], low, high)
        if self._mean is not None:
            Xq = (Xq - self._mean) / self._std
        if self._project1 is not None:
            Xq = self._project1.project(Xq)
        P = np.empty((m, self._n_plain))
        P[:, self._direct_dst] = Xq[:, self._direct_src]
        if self.temporal is not None:
            blocks = self.temporal.push_blocks(
                rows, Xq[:, self._temporal_src]
            )
            for block, (dst, cols) in zip(blocks, self._blocks):
                if dst.size:
                    P[:, dst] = block[:, cols]
        out = np.empty((m, self._n_coords))
        out[:, self._plain_dst] = P[:, self._plain_src]
        if self._pair_dst.size:
            out[:, self._pair_dst] = (
                P[:, self._pair_left] * P[:, self._pair_right]
            )
        if self._project2 is not None:
            out = self._project2.project(out)[:, self._variance]
        self.features[rows] = out
        self.has_features[rows] = True
