"""Walk-forward champion/challenger comparison with hysteresis.

The challenger shadow-scores every tick but is only judged on
*resolved* ticks -- those whose ground-truth outcome has arrived.
Resolved ticks fill tumbling windows of :data:`SHADOW_WINDOW` ticks;
each window is scored once and never revisited, the walk-forward
discipline that keeps the comparison honest on non-stationary streams.

Predictions may be booleans (the tick-level verdict; scored 1 when it
matches the outcome) or the *fraction of container rows flagged* that
tick.  Fractions score each row against the application-level outcome
-- ``fraction`` when the SLO broke, ``1 - fraction`` when it held --
which preserves the per-row resolution that a tick-level "any row
flagged" verdict collapses: a challenger that flags every squeezed
container during a burst beats a champion that flags three chronic
false positives, even though both have *some* row up every tick.

Hysteresis keeps the serving model sticky: the challenger must beat
the champion *strictly* by more than :data:`MIN_MARGIN` in
:data:`WINS_REQUIRED` consecutive windows.  Ties and near-ties go to
the champion, so a statistically indistinguishable challenger can
never flap the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs

__all__ = [
    "SHADOW_WINDOW",
    "WINS_REQUIRED",
    "MIN_MARGIN",
    "WindowResult",
    "ShadowEvaluator",
]

#: Resolved ticks per walk-forward window.
SHADOW_WINDOW = 24
#: Consecutive window wins that promote the challenger.
WINS_REQUIRED = 2
#: Near-ties go to the champion: in the drift scenario a late-run
#: challenger retrained off the oscillating post-onset mixture scores
#: within a point of the promoted champion, and without a margin it
#: could flap the deployment on luck.
MIN_MARGIN = 0.05


@dataclass
class WindowResult:
    """One scored walk-forward window."""

    index: int
    start_tick: int
    end_tick: int  # inclusive
    champion_accuracy: float
    challenger_accuracy: float
    challenger_won: bool


class ShadowEvaluator:
    """Tumbling-window accuracy duel between champion and challenger."""

    def __init__(self):
        self.windows: list[WindowResult] = []
        self.win_streak = 0
        self._champion_scores: list[float] = []
        self._challenger_scores: list[float] = []
        self._start_tick: int | None = None

    @staticmethod
    def _score(pred, outcome: bool) -> float:
        """Per-tick accuracy of a boolean verdict or flagged fraction."""
        fraction = float(pred)
        return fraction if outcome else 1.0 - fraction

    def resolve(
        self,
        t: int,
        champion_pred,
        challenger_pred,
        outcome: bool,
    ) -> WindowResult | None:
        """Settle one resolved tick; returns the window result when the
        tick completes a window, else ``None``."""
        outcome = bool(outcome)
        if self._start_tick is None:
            self._start_tick = t
        self._champion_scores.append(self._score(champion_pred, outcome))
        self._challenger_scores.append(self._score(challenger_pred, outcome))
        if len(self._champion_scores) < SHADOW_WINDOW:
            return None
        champion = sum(self._champion_scores) / SHADOW_WINDOW
        challenger = sum(self._challenger_scores) / SHADOW_WINDOW
        won = challenger > champion + MIN_MARGIN
        result = WindowResult(
            index=len(self.windows),
            start_tick=self._start_tick,
            end_tick=t,
            champion_accuracy=champion,
            challenger_accuracy=challenger,
            challenger_won=won,
        )
        self.windows.append(result)
        self.win_streak = self.win_streak + 1 if won else 0
        self._champion_scores = []
        self._challenger_scores = []
        self._start_tick = None
        if obs.enabled():
            obs.inc("lifecycle.shadow_windows")
            obs.set_gauge("lifecycle.champion_accuracy", champion)
            obs.set_gauge("lifecycle.challenger_accuracy", challenger)
        return result

    @property
    def windows_completed(self) -> int:
        return len(self.windows)

    @property
    def should_promote(self) -> bool:
        """Challenger has won :data:`WINS_REQUIRED` consecutive windows."""
        return self.win_streak >= WINS_REQUIRED

    def reset(self) -> None:
        """Start over (a new challenger entered shadow)."""
        self.windows = []
        self.win_streak = 0
        self._champion_scores = []
        self._challenger_scores = []
        self._start_tick = None
