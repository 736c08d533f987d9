"""Benchmarks for the section-5 extension features.

Not paper tables -- these quantify the future-work directions the
paper sketches:

- **edge offloading** (section 5, "Refine the architecture"): traffic
  reduction from predicting at the agents instead of shipping 1040
  metrics per container-second to the orchestrator;
- **domain adaptation** (section 5, "Calibration"): CORAL covariance
  alignment between the training services and an unseen application's
  metric distribution;
- **surrogate rules** (section 5, "Interpretability"): fidelity of a
  depth-3 rule set distilled from the forest.
"""

from repro.apps.teastore import teastore_application
from repro.cluster.simulation import ClusterSimulation
from repro.core.adaptation import CoralAligner, ImportanceWeighter
from repro.core.interpret import SurrogateTree
from repro.datasets.experiments import evaluation_nodes, teastore_placements
from repro.orchestrator.edge import EdgeDeployment
from repro.telemetry.agent import TelemetryAgent

from conftest import SEED


def test_edge_offloading_traffic(benchmark, model, table_printer):
    simulation = ClusterSimulation(evaluation_nodes(), seed=SEED)
    simulation.deploy(teastore_application(), teastore_placements())
    edge = EdgeDeployment(model, TelemetryAgent(seed=SEED))

    account = benchmark.pedantic(
        lambda: edge.account(simulation, "teastore", duration=3600),
        rounds=1,
        iterations=1,
    )
    rows = [
        {
            "mode": "centralized (1040 metrics/s/container)",
            "agent->orchestrator": f"{account.centralized_bytes / 1e6:.1f} MB/h",
        },
        {
            "mode": "edge (1 verdict/s/container)",
            "agent->orchestrator": f"{account.edge_bytes / 1e6:.3f} MB/h",
        },
    ]
    table_printer("Edge offloading: monitoring traffic per hour (TeaStore)", rows)
    print(f"reduction: {account.reduction_factor:.0f}x; agent CPU overhead "
          f"~{edge.agent_cpu_overhead_estimate(0.005, 9):.2f} cores/node")

    assert account.reduction_factor > 50
    # Edge predictions are the same model: the policy path must work.
    for _ in range(8):
        simulation.step({"teastore": 100.0})
    saturated = edge.saturated_services(simulation, "teastore", 7)
    assert isinstance(saturated, set)


def test_domain_adaptation_alignment(benchmark, corpus, model, elgg, table_printer):
    """CORAL between training-service features and the unseen Elgg
    application's features, measured in the engineered space."""
    meta = elgg.agent.catalog.feature_meta()
    container = elgg.containers()[0]
    target_raw = elgg.agent.instance_matrix(container, elgg.result.nodes)
    target = model.transform(target_raw, meta)
    source = model.transform(corpus.X[: len(target_raw)], corpus.meta)

    def align():
        aligner = CoralAligner().fit(source, target)
        return aligner, aligner.transform(source)

    aligner, aligned = benchmark.pedantic(align, rounds=1, iterations=1)
    before = aligner.alignment_distance(source, target)
    after = aligner.alignment_distance(aligned, target)

    weighter = ImportanceWeighter(random_state=SEED).fit(source, target)
    separability = weighter.domain_separability(source, target)

    table_printer(
        "Domain adaptation diagnostics (training services -> Elgg)",
        [
            {"quantity": "covariance distance before CORAL", "value": f"{before:.1f}"},
            {"quantity": "covariance distance after CORAL", "value": f"{after:.1f}"},
            {"quantity": "domain separability (0.5 = none)", "value": f"{separability:.2f}"},
        ],
    )
    assert after < before


def test_surrogate_rule_fidelity(benchmark, corpus, model, table_printer):
    features = model.transform(corpus.X, corpus.meta, corpus.groups)
    names = model.pipeline_.feature_names_
    predictions = model.classifier_.predict(features)

    surrogate = benchmark.pedantic(
        lambda: SurrogateTree(max_depth=3, min_samples_leaf=30).fit(
            features, predictions, names
        ),
        rounds=1,
        iterations=1,
    )
    fidelity = surrogate.fidelity(features, predictions)
    rules = surrogate.rules()
    table_printer(
        "Surrogate scaling rules (depth 3)",
        [{"rule": str(rule)} for rule in rules[:5]],
    )
    print(f"fidelity to the forest: {fidelity:.1%} over {len(rules)} rules")
    assert fidelity > 0.85
    assert all(len(rule.conditions) <= 3 for rule in rules)
