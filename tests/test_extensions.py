"""Tests for the section-5 extension features: domain adaptation,
interpretability, rightsizing and multi-class labeling."""

import numpy as np
import pytest

from repro.core.adaptation import CoralAligner, ImportanceWeighter
from repro.core.interpret import LimeExplainer, SurrogateTree
from repro.core.labeling import MultiLevelLabeler
from repro.orchestrator.rightsizing import (
    Recommendation,
    Rightsizer,
    RightsizingModel,
    label_overprovisioning,
)


def shifted_domains(seed=0, n=400, d=6, shift=3.0):
    """Source and target data differing by a mean/covariance shift."""
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n, d))
    transform = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    target = rng.normal(size=(n, d)) @ transform + shift
    return source, target


class TestCoral:
    def test_alignment_reduces_covariance_distance(self):
        source, target = shifted_domains()
        aligner = CoralAligner().fit(source, target)
        before = aligner.alignment_distance(source, target)
        after = aligner.alignment_distance(aligner.transform(source), target)
        assert after < before * 0.5

    def test_aligned_mean_matches_target(self):
        source, target = shifted_domains()
        aligned = CoralAligner().fit_transform(source, target)
        assert np.allclose(aligned.mean(axis=0), target.mean(axis=0), atol=0.2)

    def test_identity_when_domains_match(self):
        source, _ = shifted_domains()
        aligned = CoralAligner().fit_transform(source, source.copy())
        assert np.allclose(aligned, source, atol=0.05)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature space"):
            CoralAligner().fit(np.zeros((5, 3)), np.zeros((5, 4)))

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            CoralAligner(eps=0.0)


class TestImportanceWeighter:
    def test_weights_favor_target_like_samples(self):
        rng = np.random.default_rng(1)
        source = rng.normal(0.0, 1.0, size=(500, 3))
        target = rng.normal(2.0, 1.0, size=(500, 3))
        weighter = ImportanceWeighter(random_state=0).fit(source, target)
        weights = weighter.weights(source)
        # Source samples closer to the target mean get higher weight.
        near = weights[source[:, 0] > 1.0].mean()
        far = weights[source[:, 0] < -1.0].mean()
        assert near > far

    def test_weights_normalized_to_mean_one(self):
        source, target = shifted_domains(seed=2)
        weighter = ImportanceWeighter(random_state=0).fit(source, target)
        assert np.isclose(weighter.weights(source).mean(), 1.0)

    def test_no_shift_gives_flat_weights(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(400, 3))
        target = rng.normal(size=(400, 3))
        weighter = ImportanceWeighter(random_state=0).fit(source, target)
        weights = weighter.weights(source)
        # Without real shift the discriminator only finds noise; the
        # weight spread stays far below the shifted case's.
        assert weights.std() < 1.0
        assert weighter.domain_separability(source, target) < 0.65

    def test_separability_diagnostic(self):
        source, target = shifted_domains(seed=4, shift=5.0)
        weighter = ImportanceWeighter(random_state=0).fit(source, target)
        assert weighter.domain_separability(source, target) > 0.9

    def test_invalid_max_weight(self):
        with pytest.raises(ValueError):
            ImportanceWeighter(max_weight=0.5)


class TestSurrogateTree:
    def _fitted(self, rng=None):
        rng = rng or np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(500, 3))
        model_predictions = (X[:, 0] > 80).astype(int)
        surrogate = SurrogateTree(max_depth=2).fit(
            X, model_predictions, ["C-CPU-U", "mem", "net"]
        )
        return surrogate, X, model_predictions

    def test_high_fidelity_on_simple_model(self):
        surrogate, X, predictions = self._fitted()
        assert surrogate.fidelity(X, predictions) > 0.98

    def test_rules_are_readable_and_correct(self):
        surrogate, _, _ = self._fitted()
        rules = surrogate.rules()
        saturated_rules = [r for r in rules if r.prediction == 1]
        assert saturated_rules
        text = str(saturated_rules[0])
        assert "C-CPU-U >" in text and "saturated" in text

    def test_rule_support_sums_to_one(self):
        surrogate, _, _ = self._fitted()
        assert np.isclose(sum(r.support for r in surrogate.rules()), 1.0)

    def test_depth_restriction_limits_conditions(self):
        surrogate, _, _ = self._fitted()
        assert all(len(r.conditions) <= 2 for r in surrogate.rules())

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SurrogateTree().rules()


class TestLime:
    def test_explanation_finds_the_driving_feature(self):
        rng = np.random.default_rng(0)
        training = rng.uniform(0, 100, size=(300, 4))
        names = ["cpu", "mem", "net", "noise"]

        def predict_proba(X):
            return 1.0 / (1.0 + np.exp(-(X[:, 0] - 50.0) / 5.0))

        explainer = LimeExplainer(training, names, n_samples=400, random_state=0)
        explanation = explainer.explain(np.array([50.0, 20.0, 30.0, 10.0]),
                                        predict_proba)
        top_feature, top_weight = explanation.top(1)[0]
        assert top_feature == "cpu"
        assert top_weight > 0

    def test_model_prediction_recorded(self):
        rng = np.random.default_rng(1)
        training = rng.normal(size=(100, 2))
        explainer = LimeExplainer(training, ["a", "b"], n_samples=100,
                                  random_state=0)
        explanation = explainer.explain(
            np.zeros(2), lambda X: np.full(len(X), 0.3)
        )
        assert np.isclose(explanation.model_prediction, 0.3)

    def test_dimension_check(self):
        explainer = LimeExplainer(np.zeros((10, 2)), ["a", "b"])
        with pytest.raises(ValueError, match="dimensionality"):
            explainer.explain(np.zeros(3), lambda X: np.zeros(len(X)))


class TestMultiLevelLabeler:
    def _curve(self):
        load = np.linspace(1, 1000, 300)
        kpi = np.minimum(load, 700.0)
        return load, kpi

    def test_three_classes_by_default(self):
        labeler = MultiLevelLabeler()
        assert labeler.n_classes == 3

    def test_graded_labels(self):
        load, kpi = self._curve()
        labeler = MultiLevelLabeler(levels=(0.5,)).fit(load, kpi)
        labels = labeler.label(np.array([100.0, 500.0, 900.0]))
        assert labels.tolist() == [0, 1, 2]

    def test_binary_collapse_matches_kneedle(self):
        load, kpi = self._curve()
        labeler = MultiLevelLabeler(levels=(0.5,)).fit(load, kpi)
        graded = labeler.label(kpi)
        binary = labeler.to_binary(graded)
        assert set(np.unique(binary)) <= {0, 1}
        assert binary.sum() < len(binary)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            MultiLevelLabeler(levels=())
        with pytest.raises(ValueError):
            MultiLevelLabeler(levels=(0.9, 0.5))
        with pytest.raises(ValueError):
            MultiLevelLabeler(levels=(1.5,))


class TestRightsizing:
    def test_overprovisioning_labels(self):
        labels = label_overprovisioning(np.array([0.1, 0.5, 0.29]))
        assert labels.tolist() == [1, 0, 1]

    def test_conflicting_labels_rejected(self):
        model = RightsizingModel()
        with pytest.raises(ValueError, match="conflicting"):
            model.fit(
                np.zeros((2, 2)), [], np.array([1, 0]), np.array([1, 0])
            )

    def test_rightsizer_scale_out_immediate(self):
        sizer = Rightsizer(consecutive_ticks=5)
        recommendation = sizer.recommend(
            "auth", ["scale_out", "scale_in"], current_replicas=2
        )
        assert recommendation.recommended_replicas == 3
        assert recommendation.action == "scale_out"

    def test_rightsizer_scale_in_needs_streak(self):
        sizer = Rightsizer(consecutive_ticks=3)
        for _ in range(2):
            rec = sizer.recommend("auth", ["scale_in", "scale_in"], 2)
            assert rec.action == "hold"
        rec = sizer.recommend("auth", ["scale_in", "scale_in"], 2)
        assert rec.action == "scale_in"
        assert rec.recommended_replicas == 1

    def test_rightsizer_streak_resets_on_hold(self):
        sizer = Rightsizer(consecutive_ticks=2)
        sizer.recommend("auth", ["scale_in", "scale_in"], 2)
        sizer.recommend("auth", ["hold", "scale_in"], 2)  # reset
        rec = sizer.recommend("auth", ["scale_in", "scale_in"], 2)
        assert rec.action == "hold"

    def test_rightsizer_respects_min_replicas(self):
        sizer = Rightsizer(consecutive_ticks=1, min_replicas=1)
        rec = sizer.recommend("auth", ["scale_in"], 1)
        assert rec.recommended_replicas == 1

    def test_recommendation_action_property(self):
        assert Recommendation("s", 2, 3).action == "scale_out"
        assert Recommendation("s", 2, 2).action == "hold"
        assert Recommendation("s", 2, 1).action == "scale_in"
