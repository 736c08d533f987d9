"""Model lifecycle: drift detection, registry, shadow serving.

The package closes the serving loop around the Monitorless model
itself: the live feature stream is watched for distribution drift
(:mod:`~repro.lifecycle.drift`), and prediction-vs-outcome agreement
is tracked (:mod:`~repro.lifecycle.tracker`); drift alarms trigger
retraining (:mod:`~repro.lifecycle.retrain`); new models enter a versioned,
checksummed registry (:mod:`~repro.lifecycle.registry`) and must win a
walk-forward shadow comparison (:mod:`~repro.lifecycle.shadow`) before
:class:`~repro.lifecycle.manager.LifecycleManager` promotes them to
champion.  :mod:`~repro.lifecycle.scenario` runs the deterministic
end-to-end drift scenario.
"""

from repro.lifecycle.drift import (
    PSI_EPSILON,
    DriftDetector,
    DriftStatus,
    StreamingHistograms,
    bin_counts,
    bin_rows,
    ks_from_counts,
    psi_from_counts,
    quantile_edges,
)
from repro.lifecycle.manager import LifecycleManager
from repro.lifecycle.registry import (
    STAGES,
    ModelRegistry,
    RegistryError,
    corpus_fingerprint,
)
from repro.lifecycle.retrain import RetrainConfig, Retrainer, StreamWindow
from repro.lifecycle.scenario import (
    ANTAGONIST_DUTY,
    ANTAGONIST_PERIOD,
    ANTAGONIST_RATE,
    DriftScenarioConfig,
    DriftScenarioResult,
    DriftScenarioRunner,
    antagonist_active,
    run_drift_scenario,
    scenario_workload,
)
from repro.lifecycle.shadow import ShadowEvaluator, WindowResult
from repro.lifecycle.tracker import ModelPerformanceTracker

__all__ = [
    "PSI_EPSILON",
    "DriftDetector",
    "DriftStatus",
    "StreamingHistograms",
    "bin_counts",
    "bin_rows",
    "ks_from_counts",
    "psi_from_counts",
    "quantile_edges",
    "LifecycleManager",
    "STAGES",
    "ModelRegistry",
    "RegistryError",
    "corpus_fingerprint",
    "RetrainConfig",
    "Retrainer",
    "StreamWindow",
    "ANTAGONIST_DUTY",
    "ANTAGONIST_PERIOD",
    "ANTAGONIST_RATE",
    "DriftScenarioConfig",
    "DriftScenarioResult",
    "DriftScenarioRunner",
    "antagonist_active",
    "run_drift_scenario",
    "scenario_workload",
    "ShadowEvaluator",
    "WindowResult",
    "ModelPerformanceTracker",
]
