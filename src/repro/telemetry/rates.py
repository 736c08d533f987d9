"""Metric preprocessing: counters to rates, values to percentages.

The paper (section 3.1): "metrics reporting counters must be converted
into rates, and utilization metrics to a relative scale (i.e.,
percentage value) ... necessary to avoid overfitting our model to a
particular hardware configuration."
"""

from __future__ import annotations

import numpy as np

__all__ = ["counters_to_rates", "to_percent"]


def counters_to_rates(
    values: np.ndarray, counter_mask: np.ndarray, interval_seconds: float = 1.0
) -> np.ndarray:
    """Differentiate cumulative counter columns into per-second rates.

    The first sample of a counter has no predecessor; with two or more
    samples we back-fill it with the first computed rate, like PCP
    (rather than emit a bogus 0 or the raw cumulative value).  A
    **single-sample** window has no delta to back-fill from, so its
    lone row gets rate 0.0 -- the same value the causal fleet emitter
    (:class:`repro.fleet.telemetry.FleetTelemetryStream`) produces for
    a first tick with no successor.  Counter wraps / resets (negative diffs) are
    clamped to 0.
    """
    values = np.asarray(values, dtype=np.float64)
    counter_mask = np.asarray(counter_mask, dtype=bool)
    if values.ndim != 2:
        raise ValueError("values must be 2-D (time x metrics).")
    if counter_mask.shape[0] != values.shape[1]:
        raise ValueError("counter_mask must have one entry per metric column.")
    if interval_seconds <= 0:
        raise ValueError("interval_seconds must be positive.")
    if not counter_mask.any():
        return values.copy()
    result = values.copy()
    counters = values[:, counter_mask]
    rates = np.empty_like(counters)
    if counters.shape[0] == 1:
        rates[0] = 0.0
    else:
        deltas = np.diff(counters, axis=0) / interval_seconds
        deltas = np.maximum(deltas, 0.0)  # counter wrap / restart
        rates[1:] = deltas
        rates[0] = deltas[0]
    result[:, counter_mask] = rates
    return result


def to_percent(values: np.ndarray, capacity: float | np.ndarray) -> np.ndarray:
    """Convert absolute usage to a 0-100 relative scale, clipped."""
    capacity = np.asarray(capacity, dtype=np.float64)
    if np.any(capacity <= 0):
        raise ValueError("capacity must be positive.")
    return np.clip(100.0 * np.asarray(values, dtype=np.float64) / capacity, 0.0, 100.0)
