"""Degradation-tolerant serving: telemetry resilience, policy
fallback, checkpoint/resume and the chaos harness.

Everything here is opt-in -- the historical entry points never route
through this package, so enabling nothing changes nothing.  See
"Degraded-mode operation" in ``docs/api_overview.md``.
"""

from repro.reliability.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.reliability.chaos import (
    ChaosAgent,
    ChaosConfig,
    ChaosReport,
    InjectedTelemetryError,
    TelemetryBlackout,
    run_chaos,
)
from repro.reliability.fallback import (
    DEGRADED,
    FAILSAFE,
    HEALTHY,
    RECOVERING,
    FallbackPolicy,
)
from repro.reliability.telemetry import (
    ResilientTelemetry,
    TelemetryFault,
    TelemetryUnavailable,
)

__all__ = [
    "CheckpointError",
    "load_checkpoint",
    "read_header",
    "save_checkpoint",
    "ChaosAgent",
    "ChaosConfig",
    "ChaosReport",
    "InjectedTelemetryError",
    "TelemetryBlackout",
    "run_chaos",
    "FallbackPolicy",
    "HEALTHY",
    "DEGRADED",
    "FAILSAFE",
    "RECOVERING",
    "ResilientTelemetry",
    "TelemetryFault",
    "TelemetryUnavailable",
]
