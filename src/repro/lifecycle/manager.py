"""Champion/challenger lifecycle management for the serving loop.

:class:`LifecycleManager` sits beside the serving policy
(:class:`~repro.fleet.policy.FleetPolicy`, directly or through its
one-cell view ``MonitorlessPolicy``) and closes the
loop the paper leaves open -- *the model itself* as a monitored,
replaceable component:

1. every classified feature batch is **observed**: fed to the
   completeness-aware drift detector, buffered for retraining, and
   shadow-scored by the challenger (when one exists) on the *same*
   batch via the flat-forest path -- the challenger never actuates;
2. ground-truth outcomes arrive :data:`LABEL_DELAY` ticks late and
   settle the prediction-vs-outcome agreement tracker and the
   walk-forward champion/challenger duel;
3. a drift alarm triggers **retraining** on the recent stream plus
   optional interference corpora; the new model
   is registered as a *candidate*, immediately staged to *shadow*, and
   promoted to *champion* only after winning the walk-forward
   comparison with hysteresis -- the previous champion retires;
4. every stage change is a registry event; the manager additionally
   keeps a flat ``history`` (drift alarms, retrains, promotions,
   rejections, all keyed by tick, never wall clock).

Determinism contract: given the same seed and driving sequence, the
entire promotion history -- versions, ticks, fingerprints, registry
events -- is bitwise identical at every ``n_jobs`` and across a
mid-run kill-and-resume.  Everything the manager does is keyed by tick
and content; registry writes are idempotent replays; retraining runs
synchronously at its trigger tick on ``parallel_map``-backed builders
that are themselves bitwise at any worker count.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.lifecycle.drift import DriftDetector, DriftStatus
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.retrain import (
    STREAM_CAPACITY,
    RetrainConfig,
    Retrainer,
    StreamWindow,
)
from repro.lifecycle.shadow import ShadowEvaluator
from repro.lifecycle.tracker import ModelPerformanceTracker

__all__ = [
    "LABEL_DELAY",
    "RETRAIN_COOLDOWN",
    "SHADOW_PATIENCE",
    "LifecycleManager",
]

#: Ticks until a prediction's ground truth arrives.
LABEL_DELAY = 3
#: Fewest ticks between retrain triggers (also restarted by promotions
#: and rejections).
RETRAIN_COOLDOWN = 40
#: Walk-forward windows a challenger gets to prove itself before it is
#: retired as rejected.
SHADOW_PATIENCE = 6


class LifecycleManager:
    """Drift detection, shadow serving and promotion for one policy.

    Parameters
    ----------
    champion:
        The initially serving fitted model; registered as version 1
        (stage ``champion``, reason ``bootstrap``) unless the registry
        already knows it.
    registry:
        The :class:`~repro.lifecycle.registry.ModelRegistry` the
        versions go to.
    retrain:
        The :class:`~repro.lifecycle.retrain.RetrainConfig` of the
        manager's retrainer.
    """

    def __init__(
        self, champion, *, registry: ModelRegistry, retrain: RetrainConfig
    ):
        self.registry = registry
        self.detector = DriftDetector()
        self.tracker = ModelPerformanceTracker()
        self.evaluator = ShadowEvaluator()
        self.retrainer = Retrainer(retrain)
        record = registry.register(
            champion, reason="bootstrap", stage="champion"
        )
        self.champion = champion
        self.champion_version = record["version"]
        self.challenger = None
        self.challenger_version: int | None = None
        self.stream = StreamWindow()
        self.history: list[dict] = []
        self._pending: dict[int, tuple[float, float | None]] = {}
        self._outcomes: dict[int, bool] = {}
        self._last_trigger: int | None = None
        self._alarm_active = False

    # ------------------------------------------------------------------
    # Serving-side hooks
    # ------------------------------------------------------------------
    def observe(
        self, t: int, features: np.ndarray, flags, completeness
    ) -> np.ndarray | None:
        """Called by the policy with each tick's classified batch.

        ``features`` are the engineered rows the champion just scored,
        in membership order (the drift window and the retrain stream
        depend on row order), ``flags`` its per-row verdicts,
        ``completeness`` the per-row observedness fractions.
        Returns the challenger's per-row flags when one is
        shadow-scoring (never acted upon by the caller), else ``None``.
        """
        features = np.atleast_2d(np.asarray(features))
        if features.shape[0] == 0:
            return None
        with obs.trace("lifecycle.observe"):
            self.detector.update(features, completeness)
            challenger_flags = None
            if self.challenger is not None:
                challenger_flags = self.challenger.flags(features)
                obs.inc("lifecycle.shadow_ticks")
            clean = np.asarray(completeness, dtype=np.float64).ravel() >= 1.0
            if clean.any():
                self.stream.push(t, features[clean])
            champion_flags = np.asarray(flags)
            # The tracker watches the *serving decision* (any row
            # flagged drives the autoscaler); the evaluator duels on
            # per-row flagged fractions, which keep the resolution a
            # tick-level any-flag verdict collapses.
            self._pending[t] = (
                float(champion_flags.mean()),
                None
                if challenger_flags is None
                else float(np.asarray(challenger_flags).mean()),
            )
            self.tracker.record(t, bool(champion_flags.any()))
        return challenger_flags

    def outcome(self, t: int, violated: bool) -> None:
        """Report tick ``t``'s ground truth (did the SLO break?)."""
        self._outcomes[t] = bool(violated)

    # ------------------------------------------------------------------
    # The per-tick lifecycle step
    # ------------------------------------------------------------------
    def step(self, t: int) -> DriftStatus | None:
        """Advance the lifecycle clock at the end of tick ``t``.

        Resolves matured outcomes, updates the drift alarm, and runs
        promotion / rejection / retraining decisions.  Returns the
        drift status when the detector has a frozen reference.
        """
        with obs.trace("lifecycle.step"):
            self._resolve_through(t - LABEL_DELAY)
            promoted = self._maybe_promote(t)
            if not promoted:
                self._maybe_reject(t)
            status = None
            if self.detector.fitted:
                status = self.detector.check()
                if status.drifted and not self._alarm_active:
                    self._alarm_active = True
                    obs.inc("lifecycle.drift_alarms")
                    self._log(
                        t,
                        "drift",
                        None,
                        f"{status.features_shifted} features shifted "
                        f"(psi_max={status.psi_max:.3f}, "
                        f"ks_max={status.ks_max:.3f})",
                    )
                elif not status.drifted:
                    self._alarm_active = False
            self._maybe_retrain(t, status)
            self._prune(t)
        return status

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _log(self, t: int, event: str, version, reason: str) -> None:
        self.history.append(
            {"tick": t, "event": event, "version": version, "reason": reason}
        )

    def _resolve_through(self, limit: int) -> None:
        ready = sorted(
            tick
            for tick in self._pending
            if tick <= limit and tick in self._outcomes
        )
        for tick in ready:
            champion_pred, challenger_pred = self._pending.pop(tick)
            outcome = self._outcomes[tick]
            self.tracker.resolve(tick, outcome)
            if challenger_pred is not None and self.challenger is not None:
                self.evaluator.resolve(
                    tick, champion_pred, challenger_pred, outcome
                )

    def _maybe_promote(self, t: int) -> bool:
        if self.challenger is None or not self.evaluator.should_promote:
            return False
        version = self.challenger_version
        self.registry.transition(
            version, "champion", tick=t, reason="shadow-win"
        )
        self._log(
            t,
            "promote",
            version,
            f"won {self.evaluator.win_streak} consecutive windows "
            f"vs v{self.champion_version}",
        )
        self.champion = self.challenger
        self.champion_version = version
        self.challenger = None
        self.challenger_version = None
        self.evaluator.reset()
        self.tracker.reset()
        self.detector.reset_reference()
        self._alarm_active = False
        self._last_trigger = t
        return True

    def _maybe_reject(self, t: int) -> None:
        if (
            self.challenger is None
            or self.evaluator.windows_completed < SHADOW_PATIENCE
        ):
            return
        version = self.challenger_version
        self.registry.transition(
            version,
            "retired",
            tick=t,
            reason=f"shadow-rejected after "
            f"{self.evaluator.windows_completed} windows",
        )
        self._log(
            t,
            "reject",
            version,
            f"no win streak in {self.evaluator.windows_completed} windows",
        )
        self.challenger = None
        self.challenger_version = None
        self.evaluator.reset()
        self._last_trigger = t

    def _maybe_retrain(self, t: int, status: DriftStatus | None) -> None:
        if self.challenger is not None:
            return
        if (
            self._last_trigger is not None
            and t - self._last_trigger < RETRAIN_COOLDOWN
        ):
            return
        if status is None or not status.drifted:
            return
        self._last_trigger = t  # failed attempts also wait out the cooldown
        result = self.retrainer.retrain(
            self.champion, self.stream, self._outcomes
        )
        if result is None:
            self._log(t, "retrain-skipped", None, "insufficient labeled rows")
            return
        model, info = result
        record = self.registry.register(
            model,
            reason=f"retrain@{t}:drift",
            tick=t,
            parent_version=self.champion_version,
            corpus_fingerprint=info["corpus_fingerprint"],
        )
        self.registry.transition(
            record["version"], "shadow", tick=t, reason="drift"
        )
        self._log(
            t,
            "retrain",
            record["version"],
            f"drift: {info['stream_rows']} stream + "
            f"{info['corpus_rows']} corpus rows",
        )
        self.challenger = model
        self.challenger_version = record["version"]
        self.evaluator.reset()
        if obs.enabled():
            obs.set_gauge("lifecycle.challenger_version", record["version"])

    def _prune(self, t: int) -> None:
        horizon = t - STREAM_CAPACITY - LABEL_DELAY - 60
        for tick in [k for k in self._outcomes if k < horizon]:
            del self._outcomes[tick]
        for tick in [k for k in self._pending if k < horizon]:
            del self._pending[tick]
