"""Threshold discovery with Kneedle (paper section 2.2 / Figure 2).

Ramps a simulated Solr service linearly, observes the throughput KPI,
smooths it with a Savitzky-Golay filter, and locates the saturation
knee -- printing an ASCII rendition of Figure 2.

    python examples/threshold_discovery.py
"""

import numpy as np

from repro.apps.solr import solr_application
from repro.cluster.node import MACHINES
from repro.cluster.simulation import ClusterSimulation, Placement
from repro.core.labeling import KneedleLabeler
from repro.workloads.patterns import linear_ramp


def ascii_plot(x, series, width=72, height=16, markers="*o+") -> str:
    """Plot multiple aligned series as ASCII art."""
    lines = [[" "] * width for _ in range(height)]
    low = min(float(np.min(s)) for s in series)
    high = max(float(np.max(s)) for s in series)
    span = (high - low) or 1.0
    for marker, values in zip(markers, series):
        for i in range(width):
            index = int(i / width * (len(values) - 1))
            row = int((float(values[index]) - low) / span * (height - 1))
            lines[height - 1 - row][i] = marker
    return "\n".join("".join(line) for line in lines)


def main() -> None:
    duration = 500
    simulation = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
    simulation.deploy(solr_application(), {"solr": [Placement(node="training")]})
    load = linear_ramp(duration, 1.0, 1300.0)
    result = simulation.run({"solr": load})

    rng = np.random.default_rng(0)
    observed = result.kpi("solr", "throughput") * (
        1.0 + rng.normal(0.0, 0.02, duration)
    )

    labeler = KneedleLabeler().fit(load, observed)
    knee = labeler.knee_

    print("Observed (*) and smoothed (o) throughput vs load, "
          "difference curve (+):\n")
    difference_scaled = knee.difference * float(np.max(observed))
    print(ascii_plot(load, [observed, knee.smoothed, difference_scaled]))
    print(
        f"\nknee at load ~{knee.knee_x:.0f} req/s, KPI value {knee.knee_y:.1f}"
        f" -> saturation threshold Upsilon = {labeler.threshold_:.1f}"
    )

    labels = labeler.label(observed)
    print(
        f"labeling the ramp against Upsilon: {labels.mean():.0%} of samples "
        "saturated"
    )


if __name__ == "__main__":
    main()
