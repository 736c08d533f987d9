"""The monitorless feature-engineering pipeline (paper section 3.3).

Feature matrices travel together with per-column :class:`FeatureMeta`
records so that every step can reason about *what* a column is:

- :mod:`repro.core.features.binary` -- hot-encoded utilization levels
  (LOW/MED/HIGH, plus VERYHIGH/EXTREME for CPU) for host and container
  CPU/memory utilization (section 3.3.1; 16 extra features).
- :mod:`repro.core.features.scaling` -- logarithmic scaling of
  byte-valued metrics without a known maximum (section 3.3.2).
- :mod:`repro.core.features.temporal` -- X-AVG / X-LAG variants for
  X in {1, 5, 15} (section 3.3.5).
- :mod:`repro.core.features.interactions` -- multiplicative pairs of
  features from different resource domains (section 3.3.6).
- :mod:`repro.core.features.selection` -- random-forest top-30-union
  filtering, PCA reduction and zero-variance removal (section 3.3.4).
- :mod:`repro.core.features.pipeline` -- the ordered 6-step pipeline
  and the grid search over its optional steps (section 3.3.7).
"""

from repro.core.features.binary import BinaryLevelFeatures
from repro.core.features.interactions import InteractionFeatures
from repro.core.features.meta import Domain, FeatureMeta, Scope
from repro.core.features.pipeline import MonitorlessPipeline, PipelineConfig
from repro.core.features.scaling import LogScaler
from repro.core.features.selection import (
    PCAReducer,
    RandomForestFilter,
    VarianceFilter,
)
from repro.core.features.temporal import TemporalFeatures

__all__ = [
    "FeatureMeta",
    "Domain",
    "Scope",
    "BinaryLevelFeatures",
    "LogScaler",
    "TemporalFeatures",
    "InteractionFeatures",
    "RandomForestFilter",
    "PCAReducer",
    "VarianceFilter",
    "MonitorlessPipeline",
    "PipelineConfig",
]
