"""The closed loop's settable values, pinned by name.

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
from repro.core.model import MonitorlessModel
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
    assert sum(len(settable_values(c)) for c in SETTABLE) == 36
