"""Drift-triggered challenger retraining.

The retrain corpus is assembled from up to two sources:

- the **recent stream**: every clean engineered feature batch the
  serving policy classified is buffered (:class:`StreamWindow`); rows
  whose ground-truth outcome has arrived are labeled with it.  This is
  the freshest picture of the shifted distribution, already in the
  champion's frozen feature space;
- **interference scenarios**: the opt-in neighbour-contention corpora
  of :mod:`repro.datasets.interference`, generated through
  ``build_training_corpus``'s interference mix-in on ``parallel_map``
  (bitwise identical at every ``n_jobs``) and pushed through the
  champion's fitted pipeline.

The challenger is produced with
:meth:`~repro.core.model.MonitorlessModel.refit_classifier`: the
feature pipeline is **frozen within a lineage** -- only the classifier
is refitted -- so champion and challenger score the *same* engineered
batch during shadow serving and every per-container pipeline stream
survives a promotion untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.lifecycle.registry import corpus_fingerprint

__all__ = [
    "STREAM_CAPACITY",
    "MIN_ROWS",
    "StreamWindow",
    "RetrainConfig",
    "Retrainer",
]

#: Ticks of classified batches the recent stream keeps.
STREAM_CAPACITY = 240
#: A retrain needs at least this many labeled rows.
MIN_ROWS = 60


class StreamWindow:
    """Rolling buffer of recent clean engineered feature batches.

    One entry per tick (the policy's whole classified batch, copied --
    the fleet path reuses its feature matrix in place), for the last
    :data:`STREAM_CAPACITY` ticks, which bounds memory at
    O(capacity x batch x features).
    """

    def __init__(self):
        self._ticks: deque[tuple[int, np.ndarray]] = deque(
            maxlen=STREAM_CAPACITY
        )

    def __len__(self) -> int:
        return len(self._ticks)

    @property
    def row_count(self) -> int:
        return sum(batch.shape[0] for _, batch in self._ticks)

    def push(self, t: int, features: np.ndarray) -> None:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[0] == 0:
            return
        self._ticks.append((t, features.copy()))

    def labeled(
        self, outcomes: dict[int, bool]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack the buffered ticks whose outcome is known.

        Every row of tick ``t`` inherits the application-level outcome
        at ``t`` (did the SLO hold?), the same labeling rule the
        original corpus derives from its calibrated thresholds.
        """
        parts_X: list[np.ndarray] = []
        parts_y: list[np.ndarray] = []
        for t, batch in self._ticks:
            outcome = outcomes.get(t)
            if outcome is None:
                continue
            parts_X.append(batch)
            parts_y.append(
                np.full(batch.shape[0], int(bool(outcome)), dtype=np.int64)
            )
        if not parts_X:
            n_features = (
                self._ticks[0][1].shape[1] if self._ticks else 0
            )
            return np.empty((0, n_features)), np.empty(0, dtype=np.int64)
        return np.vstack(parts_X), np.concatenate(parts_y)


@dataclass
class RetrainConfig:
    """What varies between runs of a retraining round.

    The recent stream always contributes its labeled rows, and the
    challenger keeps the champion's classifier settings.
    """

    #: Interference scenarios mixed into the retrain corpus (see
    #: :data:`repro.datasets.interference.INTERFERENCE_SCENARIOS`);
    #: empty means stream-only retraining.
    interference_scenarios: tuple = ()
    seed: int = 0
    n_jobs: int | None = None


class Retrainer:
    """Builds a challenger from the recent stream + optional corpora."""

    def __init__(self, config: RetrainConfig):
        self.config = config

    def retrain(
        self, champion, stream: StreamWindow, outcomes: dict[int, bool]
    ):
        """Fit a challenger; returns ``(model, info)`` or ``None``.

        ``None`` means not enough labeled evidence yet -- the caller
        keeps serving the champion and may try again later.
        """
        config = self.config
        with obs.trace("lifecycle.retrain"):
            parts_X: list[np.ndarray] = []
            parts_y: list[np.ndarray] = []
            X_stream, y_stream = stream.labeled(outcomes)
            stream_rows = int(X_stream.shape[0])
            if stream_rows:
                parts_X.append(X_stream)
                parts_y.append(y_stream)
            corpus_rows = 0
            if config.interference_scenarios:
                from repro.datasets.generate import build_training_corpus

                # 120-tick interference runs, each calibrated on a
                # 100-tick ramp.
                corpus = build_training_corpus(
                    duration=120,
                    calibration_duration=100,
                    seed=config.seed,
                    runs=[],
                    interference_scenarios=list(config.interference_scenarios),
                    n_jobs=config.n_jobs,
                )
                engineered = champion.transform(
                    corpus.X, corpus.meta, corpus.groups
                )
                corpus_rows = int(engineered.shape[0])
                parts_X.append(engineered)
                parts_y.append(corpus.y.astype(np.int64))
            if stream_rows + corpus_rows < MIN_ROWS:
                return None
            X = np.vstack(parts_X)
            y = np.concatenate(parts_y)
            if y.min() == y.max():
                # Single-class evidence cannot train a detector; wait
                # for the stream to contain both healthy and degraded
                # ticks.
                return None
            challenger = champion.refit_classifier(X, y)
        obs.inc("lifecycle.retrains")
        info = {
            "corpus_fingerprint": corpus_fingerprint(X, y),
            "stream_rows": stream_rows,
            "corpus_rows": corpus_rows,
            "positive_fraction": float(y.mean()),
        }
        return challenger, info
