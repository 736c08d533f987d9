"""Service-level-objective violation detection (paper section 4.2.2).

The paper flags an SLO violation in a one-second interval when

- the average response time of all requests exceeds 750 ms, or
- any request is dropped due to overload, or
- more than 10% of requests fail.

In the simulation, drops and failures are the same fluid quantity
(requests timing out in an overloaded queue), so the second and third
conditions collapse onto the drop fraction with the two thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SloPolicy", "slo_violations", "violated_last_tick"]


@dataclass(frozen=True)
class SloPolicy:
    """SLO thresholds, defaulting to the paper's values."""

    max_average_response_time: float = 0.750  # seconds
    max_failure_fraction: float = 0.10
    drop_tolerance: float = 1e-6  # fluid-model epsilon for "any drop"

    def __post_init__(self):
        if self.max_average_response_time <= 0:
            raise ValueError("max_average_response_time must be positive.")
        if not 0 <= self.max_failure_fraction < 1:
            raise ValueError("max_failure_fraction must be in [0, 1).")


def slo_violations(
    response_time: np.ndarray,
    dropped: np.ndarray,
    offered: np.ndarray,
    policy: SloPolicy | None = None,
) -> np.ndarray:
    """Boolean per-second violation series."""
    policy = policy or SloPolicy()
    response_time = np.asarray(response_time, dtype=np.float64)
    dropped = np.asarray(dropped, dtype=np.float64)
    offered = np.asarray(offered, dtype=np.float64)
    if not response_time.shape == dropped.shape == offered.shape:
        raise ValueError("All series must have the same shape.")
    with np.errstate(divide="ignore", invalid="ignore"):
        failure_fraction = np.where(offered > 0, dropped / offered, 0.0)
    return (
        (response_time > policy.max_average_response_time)
        | (dropped > policy.drop_tolerance)
        | (failure_fraction > policy.max_failure_fraction)
    )


def violated_last_tick(kpis: dict, slo: SloPolicy | None = None) -> bool:
    """Did the last recorded second of one application violate the SLO?

    ``kpis`` is the application's KPI record
    (``simulation._kpis[application]``); before any second is recorded
    the answer is ``False``.
    """
    if not kpis["response_time"]:
        return False
    return bool(
        slo_violations(
            kpis["response_time"][-1:],
            kpis["dropped"][-1:],
            kpis["offered"][-1:],
            slo,
        ).any()
    )
