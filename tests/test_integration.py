"""End-to-end integration tests: train on Table-1 data, evaluate on
unseen applications, close the autoscaling loop."""

import numpy as np
import pytest

from repro.core.aggregation import aggregate_or
from repro.core.evaluation import lagged_confusion
from repro.datasets.experiments import elgg_scenario, evaluate_detectors
from repro.ml.metrics import f1_score


class _ConstantModel:
    """Predicts ``value`` for every row and counts its calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def predict(self, matrix, meta):
        self.calls += 1
        return np.full(len(matrix), self.value)


class TestTrainEvaluateTransfer:
    """The paper's central claim: a model trained only on Table-1
    services detects saturation of applications it has never seen."""

    @pytest.fixture(scope="class")
    def elgg(self):
        return elgg_scenario(duration=400, seed=1)

    def test_transfer_to_unseen_application(self, tiny_model, elgg):
        predictions = elgg.instance_predictions(tiny_model)
        app_prediction = aggregate_or(predictions)
        confusion = lagged_confusion(elgg.y_true, app_prediction, k=2)
        # Trained on 6 tiny runs only; must still comfortably beat the
        # all-positive strawman on an application it never saw.
        all_positive = lagged_confusion(
            elgg.y_true, np.ones_like(elgg.y_true), k=2
        )
        assert confusion.accuracy > 0.75
        assert confusion.accuracy > all_positive.accuracy

    def test_each_model_gets_its_own_predictions(self, elgg):
        """Models scored in turn under one name are never served another
        model's cached predictions, although a new model can reuse a
        freed one's ``id``."""
        for value in (1, 2, 3):
            model = _ConstantModel(value)
            for _ in range(2):
                predictions = elgg.instance_predictions(model)
                assert {int(v) for s in predictions.values() for v in s} == {value}
            assert model.calls == len(predictions)  # the second call hit the cache

    def test_monitorless_close_to_tuned_cpu_baseline(self, tiny_model, elgg):
        comparison = evaluate_detectors(elgg, tiny_model, k=2)
        cpu = comparison.rows["cpu"].f1
        monitorless = comparison.rows["monitorless"].f1
        # The baselines are tuned a-posteriori on the test data.  With the
        # full training corpus monitorless lands within ~0.01 F1 of the
        # optimal CPU rule (see benchmarks/bench_table5_elgg.py); the tiny
        # six-run fixture used here only supports a coarser bound.
        assert monitorless > cpu - 0.2

    def test_fn_averse_operating_point(self, tiny_model, elgg):
        comparison = evaluate_detectors(elgg, tiny_model, k=2)
        confusion = comparison.rows["monitorless"]
        # Threshold 0.4 trades FPs for FNs (section 4).
        assert confusion.fn <= max(3, confusion.fp)


class TestModelInternals:
    def test_training_f1_high(self, tiny_model, tiny_corpus):
        predictions = tiny_model.predict(
            tiny_corpus.X, tiny_corpus.meta, tiny_corpus.groups
        )
        assert f1_score(tiny_corpus.y, predictions) > 0.9

    def test_interaction_features_dominate_importances(self, tiny_model):
        """Table 4: nearly all top features are x-products."""
        top = tiny_model.feature_importances(top=15)
        product_share = np.mean([" x " in name for name, _ in top])
        assert product_share > 0.4

    def test_engineered_feature_count_substantial(self, tiny_model):
        # 1040 raw metrics engineer into hundreds of features (the paper
        # reaches 4492 before its second reduction).
        assert tiny_model.n_engineered_features_ > 100


class TestClosedLoopSmoke:
    def test_monitorless_autoscaling_end_to_end(self, tiny_model):
        from repro.apps.teastore import teastore_application
        from repro.cluster.simulation import ClusterSimulation, Placement
        from repro.datasets.experiments import evaluation_nodes, teastore_placements
        from repro.orchestrator.autoscaler import ScalingRules
        from repro.orchestrator.loop import Orchestrator
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent
        from repro.workloads.patterns import step_levels

        simulation = ClusterSimulation(evaluation_nodes(), seed=0)
        simulation.deploy(teastore_application(), teastore_placements())
        policy = MonitorlessPolicy(tiny_model, TelemetryAgent(seed=0))
        rules = ScalingRules(
            placements={
                "auth": Placement(node="M2", cpu_limit=2.0),
                "recommender": Placement(node="M2", cpu_limit=1.0),
                "webui": Placement(node="M2", cpu_limit=1.0),
            },
            replica_lifespan=40,
        )
        orchestrator = Orchestrator(simulation, "teastore", policy, rules)
        workload = step_levels([15, 40, 15], [100.0, 650.0, 100.0])
        result = orchestrator.run({"teastore": workload})
        assert result.duration == 70
        assert result.extra_replicas.max() >= 0  # loop completed
        assert np.all(np.isfinite(result.response_time))
