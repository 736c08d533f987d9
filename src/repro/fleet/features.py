"""Batched feature engineering: a fitted pipeline run tick by tick
over the whole fleet matrix.

One :class:`FleetPipelineStream` serves every container.  All
rolling/lag/rate state lives in preallocated ``(n_rows, ...)`` arrays
updated with numpy ops; each matrix row is an independent series, so
every per-row output is bitwise identical to a per-container pipeline
stream (the reference in ``tests/serving_reference.py``) fed the same
rows, and to the batch ``transform`` of that container's whole series
(PCA-based reductions may differ in the last bits, within the 1e-9
streaming tolerance).

Row independence is what makes this work: the stateless steps (binary
levels, log scaling, normalization, filters, interactions) apply the
*batch* ``transform`` of the fitted pipeline directly to the fleet
matrix -- elementwise per row, so a fleet tick is arithmetically the
same as N single-row transforms.  Only the temporal step is stateful;
:class:`FleetTemporalState` computes
:meth:`~repro.core.features.temporal.TemporalFeatures.transform`'s
AVG/LAG columns one tick at a time, over per-row tick counters and
``(ring, n_rows, k)`` ring buffers, with the batch path's
cumulative-difference + window-extremes-clamp arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.features.meta import FeatureMeta
from repro.core.features.pipeline import MonitorlessPipeline
from repro.ml.preprocessing import StandardScaler

__all__ = ["FleetTemporalState", "FleetPipelineStream"]


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
    through the fitted steps and stores the engineered rows in
    :attr:`features`.  NaN inputs are masked to each row's last clean
    input (0.0 before one exists) *before* the temporal step: a NaN in
    the cumulative sums would poison every later rolling feature.
    """

    def __init__(
        self,
        pipeline: MonitorlessPipeline,
        input_meta: list[FeatureMeta],
        capacity: int = 64,
        chunk_rows: int = 1024,
    ):
        if not hasattr(pipeline, "variance_"):
            raise RuntimeError("Pipeline must be fit_transform-ed first.")
        self.pipeline = pipeline
        self.n_raw = len(input_meta)
        self.chunk_rows = int(chunk_rows)
        # The batch step transforms take (and return) meta lists; the
        # per-step input metas are a pure function of the catalog meta,
        # so capture them once with a dummy row and reuse them on every
        # push (LogScaler reads meta content, the filters index it).
        self._meta: dict[str, list[FeatureMeta]] = {}
        X = np.zeros((1, self.n_raw))
        meta = list(input_meta)
        self._meta["binary"] = meta
        X, meta = pipeline.binary_.transform(X, meta)
        self._meta["log"] = meta
        X, meta = pipeline.log_.transform(X, meta)
        if pipeline.reduction1_ is not None:
            self._meta["reduction1"] = meta
            X, meta = pipeline.reduction1_.transform(X, meta)
        if pipeline.temporal_ is not None:
            X, meta = pipeline.temporal_.transform(X, meta, None)
        if pipeline.interactions_ is not None:
            self._meta["interactions"] = meta
            X, meta = pipeline.interactions_.transform(X, meta)
        if pipeline.reduction2_ is not None:
            self._meta["reduction2"] = meta
            X, meta = pipeline.reduction2_.transform(X, meta)
        self._meta["variance"] = meta
        X, meta = pipeline.variance_.transform(X, meta)
        self.n_features = X.shape[1]

        # The compiled plan computes only the columns that survive the
        # final selections (possible whenever every reduction is a pure
        # column subset); pipelines it cannot express -- e.g. PCA
        # reductions -- keep the full-width reference walk.
        self._compiled = self._compile()
        if self._compiled is not None:
            tsub = self._compiled["tsub"]
            self.temporal = (
                FleetTemporalState(
                    len(tsub), pipeline.temporal_.windows, capacity
                )
                if len(tsub)
                else None
            )
            self._last_clean = np.zeros(
                (capacity, self._compiled["needed_raw"].size)
            )
        else:
            self.temporal = (
                FleetTemporalState(
                    len(pipeline.temporal_.columns_),
                    pipeline.temporal_.windows,
                    capacity,
                )
                if pipeline.temporal_ is not None
                else None
            )
            self._last_clean = np.zeros((capacity, self.n_raw))
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
        with ``rows``.  Batches are processed in bounded chunks so the
        transient interaction-product matrix stays small at fleet
        scale.
        """
        if rows.size == 0:
            return
        # The compiled plan's transients are O(rows x final columns), so
        # the whole batch fits in one chunk; the reference walk bounds
        # the full-width interaction matrix instead.  Chunking is a row
        # partition over row-independent math, so the split never
        # changes a single bit of the output.
        chunk_rows = rows.size if self._compiled is not None else self.chunk_rows
        with obs.trace("fleet.push_rows"):
            for lo in range(0, rows.size, chunk_rows):
                chunk = slice(lo, lo + chunk_rows)
                self._push_chunk(
                    rows[chunk], raw[chunk], completeness[chunk]
                )
        obs.inc("fleet.rows_pushed", float(rows.size))

    # ------------------------------------------------------------------
    # Compiled final-column plan
    # ------------------------------------------------------------------
    def _compile(self) -> dict | None:
        """Build the final-column execution plan, or ``None``.

        The default pipeline's reductions are pure column selections,
        so each of the ~1e2 surviving output columns traces back
        through the interaction pairs, the temporal blocks and the
        post-reduction matrix to a handful of raw/level source columns
        -- and each tick only those are computed.  Every retained
        operation (threshold compare, ``log1p``, standardization,
        windowed temporal math, pair products, column copies) is
        elementwise per column, so compiled outputs are bitwise
        identical to the reference full-width walk.  Pipelines the plan
        cannot express (PCA reductions, custom scalers) return ``None``
        and keep the reference walk.
        """
        p = self.pipeline
        n_raw = self.n_raw
        if not hasattr(p.binary_, "source_columns_"):
            return None
        log_cols = getattr(p.log_, "columns_", None)
        if log_cols is None or any(c >= n_raw for c in log_cols):
            return None
        scaler = p.scaler_
        if scaler is not None and type(scaler) is not StandardScaler:
            return None
        for reducer in (p.reduction1_, p.reduction2_):
            if reducer is not None and not hasattr(reducer, "selected_"):
                return None
        if not hasattr(p.variance_, "selected_"):
            return None

        level_defs = [
            (index, low, high)
            for index, levels in p.binary_.source_columns_
            for (_suffix, low, high) in levels
        ]
        w1 = n_raw + len(level_defs)
        sel1 = (
            np.asarray(p.reduction1_.selected_, dtype=np.intp)
            if p.reduction1_ is not None
            else np.arange(w1, dtype=np.intp)
        )
        k1 = sel1.size
        temporal = p.temporal_
        t_cols = (
            np.asarray(temporal.columns_, dtype=np.intp)
            if temporal is not None
            else np.zeros(0, dtype=np.intp)
        )
        k_t = t_cols.size
        n_blocks = 2 * len(temporal.windows) if temporal is not None else 0
        w_t = k1 + n_blocks * k_t
        inter = p.interactions_
        if inter is not None and inter.pairs_:
            left = np.asarray([i for i, _ in inter.pairs_], dtype=np.intp)
            right = np.asarray([j for _, j in inter.pairs_], dtype=np.intp)
        else:
            left = right = np.zeros(0, dtype=np.intp)
        w_inter = w_t + left.size
        sel2 = (
            np.asarray(p.reduction2_.selected_, dtype=np.intp)
            if p.reduction2_ is not None
            else np.arange(w_inter, dtype=np.intp)
        )
        final_cols = sel2[np.asarray(p.variance_.selected_, dtype=np.intp)]
        if final_cols.size != self.n_features:
            return None  # inconsistent fit state; keep the reference walk

        # Output coordinates: plain copies vs pair products, and the
        # union of plain coordinates any output depends on.
        is_plain = final_cols < w_t
        pair_final = final_cols[~is_plain] - w_t
        needed_plain = sorted(
            set(final_cols[is_plain].tolist())
            | set(left[pair_final].tolist())
            | set(right[pair_final].tolist())
        )
        plain_pos = {c: i for i, c in enumerate(needed_plain)}

        # Each plain coordinate lives in the post-reduction matrix
        # (c < k1) or in temporal block b = (c - k1) // k_t.
        tsub = sorted({(c - k1) % k_t for c in needed_plain if c >= k1})
        tpos = {j: i for i, j in enumerate(tsub)}
        direct_cols = [c for c in needed_plain if c < k1]
        needed_q = sorted(
            {int(sel1[c]) for c in direct_cols}
            | {int(sel1[t_cols[j]]) for j in tsub}
        )
        qpos = {q: i for i, q in enumerate(needed_q)}

        value_pos, value_src, levels = [], [], []
        log_set = set(log_cols)
        for q in needed_q:
            if q < n_raw:
                value_pos.append(qpos[q])
                value_src.append(q)
            else:
                src, low, high = level_defs[q - n_raw]
                levels.append((qpos[q], src, low, high))
        needed_raw = np.asarray(
            sorted(set(value_src) | {src for _, src, _, _ in levels}),
            dtype=np.intp,
        )
        raw_pos = {int(q): i for i, q in enumerate(needed_raw)}
        block_maps = [
            (
                np.asarray(
                    [plain_pos[c] for c in needed_plain
                     if c >= k1 and (c - k1) // k_t == b],
                    dtype=np.intp,
                ),
                np.asarray(
                    [tpos[(c - k1) % k_t] for c in needed_plain
                     if c >= k1 and (c - k1) // k_t == b],
                    dtype=np.intp,
                ),
            )
            for b in range(n_blocks)
        ]
        return {
            "needed_raw": needed_raw,
            "n_q": len(needed_q),
            "value_pos": np.asarray(value_pos, dtype=np.intp),
            "value_raw": np.asarray(
                [raw_pos[q] for q in value_src], dtype=np.intp
            ),
            "log_pos": np.asarray(
                [qpos[q] for q in value_src if q in log_set], dtype=np.intp
            ),
            "levels": [
                (pos, raw_pos[src], low, high)
                for pos, src, low, high in levels
            ],
            "mean_q": scaler.mean_[needed_q] if scaler is not None else None,
            "std_q": scaler.std_[needed_q] if scaler is not None else None,
            "tsub": tsub,
            "tsrc_pos": np.asarray(
                [qpos[int(sel1[t_cols[j]])] for j in tsub], dtype=np.intp
            ),
            "n_plain": len(needed_plain),
            "direct_P": np.asarray(
                [plain_pos[c] for c in direct_cols], dtype=np.intp
            ),
            "direct_X": np.asarray(
                [qpos[int(sel1[c])] for c in direct_cols], dtype=np.intp
            ),
            "block_maps": block_maps,
            "plain_out": np.flatnonzero(is_plain),
            "plain_src": np.asarray(
                [plain_pos[c] for c in final_cols[is_plain]], dtype=np.intp
            ),
            "pair_out": np.flatnonzero(~is_plain),
            "pair_L": np.asarray(
                [plain_pos[int(c)] for c in left[pair_final]], dtype=np.intp
            ),
            "pair_R": np.asarray(
                [plain_pos[int(c)] for c in right[pair_final]], dtype=np.intp
            ),
        }

    def _push_chunk_compiled(self, rows, raw, completeness) -> None:
        plan = self._compiled
        sub = raw[:, plan["needed_raw"]].astype(np.float64, copy=True)
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
        Xq = np.empty((m, plan["n_q"]))
        Xq[:, plan["value_pos"]] = sub[:, plan["value_raw"]]
        log_pos = plan["log_pos"]
        if log_pos.size:
            Xq[:, log_pos] = np.log1p(np.maximum(Xq[:, log_pos], 0.0))
        for pos, src, low, high in plan["levels"]:
            values = sub[:, src]
            mask = np.ones(m, dtype=bool)
            if low is not None:
                mask &= values > low
            if high is not None:
                mask &= values <= high
            Xq[:, pos] = mask.astype(np.float64)
        if plan["mean_q"] is not None:
            Xq = (Xq - plan["mean_q"]) / plan["std_q"]
        P = np.empty((m, plan["n_plain"]))
        P[:, plan["direct_P"]] = Xq[:, plan["direct_X"]]
        if self.temporal is not None:
            blocks = self.temporal.push_blocks(rows, Xq[:, plan["tsrc_pos"]])
            for b, (p_pos, b_cols) in enumerate(plan["block_maps"]):
                if p_pos.size:
                    P[:, p_pos] = blocks[b][:, b_cols]
        out = np.empty((m, self.n_features))
        out[:, plan["plain_out"]] = P[:, plan["plain_src"]]
        if plan["pair_out"].size:
            out[:, plan["pair_out"]] = (
                P[:, plan["pair_L"]] * P[:, plan["pair_R"]]
            )
        self.features[rows] = out
        self.has_features[rows] = True

    def _push_chunk(self, rows, raw, completeness) -> None:
        if self._compiled is not None:
            self._push_chunk_compiled(rows, raw, completeness)
            return
        pipeline = self.pipeline
        X = np.array(raw, dtype=np.float64, copy=True)
        nan_mask = np.isnan(X)
        nan_rows = nan_mask.any(axis=1)
        if nan_rows.any():
            fill = np.where(
                self._has_clean[rows][:, None], self._last_clean[rows], 0.0
            )
            X[nan_mask] = fill[nan_mask]
        self._last_clean[rows] = X
        self._has_clean[rows] = True
        imputed = (np.asarray(completeness) < 1.0) | nan_rows
        self.imputed_ticks[rows] += imputed
        self.ticks[rows] += 1

        X, _ = pipeline.binary_.transform(X, self._meta["binary"])
        X, _ = pipeline.log_.transform(X, self._meta["log"])
        if pipeline.scaler_ is not None:
            X = pipeline.scaler_.transform(X)
        if pipeline.reduction1_ is not None:
            X, _ = pipeline.reduction1_.transform(X, self._meta["reduction1"])
        if pipeline.temporal_ is not None:
            source = X[:, pipeline.temporal_.columns_]
            blocks = self.temporal.push_blocks(rows, source)
            X = np.hstack([X, *blocks])
        if pipeline.interactions_ is not None:
            X, _ = pipeline.interactions_.transform(
                X, self._meta["interactions"]
            )
        if pipeline.reduction2_ is not None:
            X, _ = pipeline.reduction2_.transform(X, self._meta["reduction2"])
        X, _ = pipeline.variance_.transform(X, self._meta["variance"])
        self.features[rows] = X
        self.has_features[rows] = True
