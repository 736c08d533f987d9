"""The settable values of the closed loop and the offline path, pinned
by name.

A settable value is a parameter with a default or a dataclass field.
Each component below keeps only the values its callers set to more
than one value; every other setting is a constant at its use site.  A
new option therefore shows up as a diff of :data:`SETTABLE`, and it
needs two existing callers that set different values.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro import obs
from repro.apps.antagonist import antagonist_application, antagonist_service
from repro.core.labeling import (
    KneedleLabeler,
    MultiLevelLabeler,
    kneedle,
    savitzky_golay,
)
from repro.core.model import MonitorlessModel
from repro.datasets.experiments import (
    calibrate_application,
    elgg_scenario,
    multitenant_scenario,
    teastore_scaling_rules,
)
from repro.datasets.generate import (
    build_training_corpus,
    calibrate,
    calibrate_threshold,
    generate_session,
)
from repro.datasets.interference import (
    InterferenceScenario,
    build_interference_corpus,
    generate_interference_run,
)
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    FleetShardRunner,
    make_fleet_specs,
)
from repro.fleet.policy import FleetPolicy
from repro.lifecycle import (
    DriftDetector,
    DriftScenarioConfig,
    LifecycleManager,
    ModelPerformanceTracker,
    RetrainConfig,
    ShadowEvaluator,
    StreamWindow,
    run_drift_scenario,
)
from repro.orchestrator.loop import Orchestrator
from repro.reliability.chaos import ChaosConfig
from repro.reliability.fallback import FallbackPolicy
from repro.reliability.telemetry import ResilientTelemetry

SETTABLE = {
    FleetPolicy: ["catalog", "lifecycle"],
    FleetPolicy.configure_fallback: [],
    FallbackPolicy: ["failsafe", "recovery_ticks"],
    FleetShardRunner: [],
    FleetOrchestrator: [
        "n_shards", "n_jobs", "checkpoint_dir", "checkpoint_interval",
        "die_at_tick",
    ],
    make_fleet_specs: ["base_seed", "kind"],
    ResilientTelemetry: ["staleness_budget", "max_retries"],
    Orchestrator: ["rules"],
    Orchestrator.resume_from: ["model"],
    MonitorlessModel.refit_classifier: [],
    DriftDetector: [],
    run_drift_scenario: ["config"],
    obs.enable: [],
    RetrainConfig: ["interference_scenarios", "seed", "n_jobs"],
    DriftScenarioConfig: [
        "duration", "seed", "antagonist", "interference_scenario_ids",
        "n_jobs", "lifecycle_enabled",
    ],
    ChaosConfig: [
        "dropout_probability", "hard_failure_probability",
        "transient_failure_probability", "nan_probability",
        "state_failure_probability", "blackouts", "node_faults",
        "staleness_budget", "failsafe", "seed", "antagonist",
        "antagonist_rate",
    ],
    LifecycleManager: [],
    ModelPerformanceTracker: [],
    ShadowEvaluator: [],
    StreamWindow: [],
    # The offline path: corpora, calibration, labeling, scenarios.
    build_training_corpus: [
        "duration", "calibration_duration", "seed", "runs",
        "interference_scenarios", "n_jobs",
    ],
    build_interference_corpus: [
        "duration", "calibration_duration", "seed", "scenarios", "n_jobs",
    ],
    generate_session: ["duration", "calibration_duration", "seed"],
    generate_interference_run: ["duration", "calibration_duration", "seed"],
    calibrate: [],
    calibrate_threshold: ["duration", "node", "seed"],
    calibrate_application: ["seed"],
    InterferenceScenario: [
        "scenario_id", "victim_run", "antagonist", "victim_load",
    ],
    elgg_scenario: ["duration", "seed"],
    multitenant_scenario: ["duration", "seed"],
    teastore_scaling_rules: [],
    antagonist_service: [],
    antagonist_application: [],
    savitzky_golay: [],
    kneedle: [],
    KneedleLabeler: [],
    KneedleLabeler.fit: [],
    KneedleLabeler.fit_label: [],
    MultiLevelLabeler: ["levels"],
}


def settable_values(component) -> list[str]:
    """A component's dataclass fields, or its parameters with defaults."""
    if dataclasses.is_dataclass(component):
        return [field.name for field in dataclasses.fields(component)]
    return [
        parameter.name
        for parameter in inspect.signature(component).parameters.values()
        if parameter.default is not inspect.Parameter.empty
    ]


def test_each_component_keeps_its_settable_values():
    for component, names in SETTABLE.items():
        assert settable_values(component) == names, component.__qualname__


def test_settable_value_count():
    assert sum(len(settable_values(c)) for c in SETTABLE) == 67
