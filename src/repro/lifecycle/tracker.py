"""Prediction-vs-outcome agreement over ground-truth-delayed windows.

Saturation ground truth (did the application actually violate its SLO
around tick ``t``?) only becomes known a few ticks after the
prediction was served.  :class:`ModelPerformanceTracker` buffers each
tick's verdict, accepts the outcome when the driver learns it, and
maintains rolling agreement over the last :data:`AGREEMENT_WINDOW`
resolved ticks, published as the ``lifecycle.agreement`` gauge.  It
observes only: the drift scenario's solo champion chronically
over-flags its plateau (its corpus never contained TeaStore at steady
state), so rolling agreement is pinned low from the start and is no
usable retrain trigger; the drift alarm is the trigger.
"""

from __future__ import annotations

from collections import deque

from repro import obs

__all__ = ["AGREEMENT_WINDOW", "MIN_RESOLVED", "ModelPerformanceTracker"]

#: Resolved ticks the rolling agreement covers.
AGREEMENT_WINDOW = 120
#: Resolved ticks the window needs before agreement is reported.
MIN_RESOLVED = 20


class ModelPerformanceTracker:
    """Rolling agreement between served verdicts and delayed outcomes."""

    def __init__(self):
        self._pending: dict[int, bool] = {}
        self._resolved: deque[bool] = deque(maxlen=AGREEMENT_WINDOW)

    def record(self, t: int, predicted: bool) -> None:
        """Buffer the verdict served at tick ``t``."""
        self._pending[t] = bool(predicted)

    def resolve(self, t: int, outcome: bool) -> bool | None:
        """Settle tick ``t`` against its ground-truth outcome.

        Returns whether the prediction agreed, or ``None`` when no
        verdict was recorded for that tick (e.g. the policy had no
        feature rows yet).
        """
        predicted = self._pending.pop(t, None)
        if predicted is None:
            return None
        agreed = predicted == bool(outcome)
        self._resolved.append(agreed)
        if obs.enabled():
            agreement = self.agreement()
            if agreement is not None:
                obs.set_gauge("lifecycle.agreement", agreement)
        return agreed

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def agreement(self) -> float | None:
        """Mean agreement over the rolling window; ``None`` while the
        window holds fewer than :data:`MIN_RESOLVED` settled ticks."""
        if len(self._resolved) < MIN_RESOLVED:
            return None
        return sum(self._resolved) / len(self._resolved)

    def reset(self) -> None:
        """Forget everything (a new champion starts with a clean slate)."""
        self._pending.clear()
        self._resolved.clear()
