"""Figure 2: throughput curve, Savitzky-Golay smoothing, difference
curve and the Kneedle knee on a linear-ramp Solr run.

The paper's figure shows observed throughput (noisy), the smoothed
curve and the beta-alpha differences with the knee near 700 req/s.
"""

import numpy as np

from repro.cluster.node import MACHINES
from repro.cluster.simulation import ClusterSimulation, Placement
from repro.apps.solr import solr_application
from repro.core.labeling import KneedleLabeler, kneedle
from repro.workloads.patterns import linear_ramp


def _ramp_run(duration=600, seed=0):
    simulation = ClusterSimulation({"training": MACHINES["training"]}, seed=seed)
    simulation.deploy(solr_application(), {"solr": [Placement(node="training")]})
    load = linear_ramp(duration, 1.0, 1300.0)
    result = simulation.run({"solr": load})
    throughput = result.kpi("solr", "throughput")
    rng = np.random.default_rng(seed)
    observed = throughput * (1.0 + rng.normal(0.0, 0.02, duration))
    return load, observed


def test_fig2_kneedle(benchmark, table_printer):
    load, observed = _ramp_run()

    result = benchmark.pedantic(
        lambda: kneedle(load, observed), rounds=3, iterations=1
    )

    labeler = KneedleLabeler().fit(load, observed)
    # Emit the three series of the figure at a coarse resolution.
    rows = []
    for index in range(0, len(load), len(load) // 12):
        rows.append(
            {
                "load_req_s": round(float(load[index]), 1),
                "observed": round(float(observed[index]), 1),
                "smoothed": round(float(result.smoothed[index]), 1),
                "difference": round(float(result.difference[index]), 3),
            }
        )
    table_printer("Figure 2: Kneedle on a Solr linear-ramp run", rows)
    print(
        f"knee at {result.knee_x:.0f} req/s (paper: ~700), "
        f"threshold Upsilon = {labeler.threshold_:.1f}"
    )

    # Shape assertions: the knee sits at the capacity elbow.
    assert 700.0 <= result.knee_x <= 900.0
    assert abs(result.knee_y - 800.0) < 60.0
