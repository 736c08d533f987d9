"""Closed-loop autoscaling demo (paper section 4.2.2 / Table 7).

Deploys the 7-service TeaStore on the simulated M1/M2/M3 trio, plays
a bursty workload trace, and compares three scaling policies:

- **no scaling** -- the static baseline;
- **monitorless** -- the trained model watching live platform metrics;
- **RT-based** -- the a-posteriori "optimal" scaler watching the
  application's own response-time KPI (which monitorless avoids
  needing).

    python examples/autoscaling_demo.py
"""

from repro.apps.teastore import teastore_application
from repro.cluster.simulation import ClusterSimulation
from repro.core.model import MonitorlessModel
from repro.datasets.configs import run_by_id
from repro.datasets.experiments import (
    evaluation_nodes,
    teastore_placements,
    teastore_scaling_rules,
)
from repro.datasets.generate import build_training_corpus
from repro.orchestrator.loop import Orchestrator
from repro.orchestrator.policies import (
    MonitorlessPolicy,
    NoScalingPolicy,
    ResponseTimePolicy,
)
from repro.telemetry.agent import TelemetryAgent
from repro.workloads.traces import teastore_trace

TRACE_SECONDS = 1200


def train_model() -> MonitorlessModel:
    print("Training monitorless on 8 Table-1 runs...")
    runs = [run_by_id(i) for i in (1, 2, 7, 8, 9, 12, 21, 24)]
    corpus = build_training_corpus(
        duration=200, calibration_duration=200, seed=0, runs=runs
    )
    model = MonitorlessModel(classifier_params={"n_estimators": 40})
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    return model


def run_policy(name: str, policy, scale: bool):
    simulation = ClusterSimulation(evaluation_nodes(), seed=0)
    simulation.deploy(teastore_application(), teastore_placements())
    rules = teastore_scaling_rules() if scale else None
    orchestrator = Orchestrator(simulation, "teastore", policy, rules)
    trace = teastore_trace(duration=TRACE_SECONDS, seed=7)
    result = orchestrator.run({"teastore": trace})
    print(
        f"  {name:<24} provisioning +{100 * result.average_provisioning:.0f}%  "
        f"SLO violations {result.slo_violation_count:>4}  "
        f"scale-outs {result.total_scale_outs}"
    )
    return result


def main() -> None:
    model = train_model()
    agent = TelemetryAgent(seed=0)
    print(f"\nReplaying a {TRACE_SECONDS}s bursty trace under three policies:")
    run_policy("no scaling", NoScalingPolicy(), scale=False)
    run_policy(
        "monitorless", MonitorlessPolicy(model, agent), scale=True
    )
    run_policy(
        "RT-based (optimal)",
        ResponseTimePolicy(["recommender", "auth"], rt_threshold=0.5),
        scale=True,
    )
    print(
        "\nMonitorless approaches the RT-based scaler without ever reading "
        "the application's KPIs."
    )


if __name__ == "__main__":
    main()
