"""Tests for the 6-step pipeline, aggregation, thresholds and the model facade."""

import tracemalloc

import numpy as np
import pytest

from repro.core.aggregation import (
    aggregate_k_of_n,
    aggregate_majority,
    aggregate_or,
)
from repro.core.features.meta import Domain, FeatureMeta, Scope
from repro.core.features.pipeline import (
    MonitorlessPipeline,
    PipelineConfig,
    admissible_configs,
    grid_search_pipeline,
)
from repro.core.model import CLASSIFIERS, MonitorlessModel, make_classifier
from repro.core.thresholds import ThresholdBaseline, tune_threshold_baseline
from repro.reliability.checkpoint import model_fingerprint
from tests.pipeline_reference import reference_fit_transform, reference_transform


def synthetic_metrics(n=240, seed=0):
    """A miniature metric matrix with learnable saturation structure."""
    rng = np.random.default_rng(seed)
    load = np.abs(np.sin(np.linspace(0, 6, n))) * 100
    cpu = np.clip(load + rng.normal(0, 3, n), 0, 100)
    mem = np.clip(40 + load / 4 + rng.normal(0, 2, n), 0, 100)
    conns = load * 2 + rng.normal(0, 5, n)
    noise1 = rng.normal(size=n)
    byte_metric = np.abs(load * 1e6 + rng.normal(0, 1e5, n))
    X = np.column_stack([cpu, mem, conns, noise1, byte_metric])
    meta = [
        FeatureMeta("C-CPU-U", Domain.CPU, Scope.CONTAINER, utilization=True),
        FeatureMeta("C-MEM-U", Domain.MEMORY, Scope.CONTAINER, utilization=True),
        FeatureMeta("network.tcp.currestab", Domain.NETWORK, Scope.HOST),
        FeatureMeta("mem.vmstat.foo", Domain.MEMORY, Scope.HOST),
        FeatureMeta("disk.bytes", Domain.DISK, Scope.HOST, bytes_like=True),
    ]
    y = (cpu > 85).astype(np.int64)
    groups = np.array([0] * (n // 2) + [1] * (n - n // 2))
    return X, meta, y, groups


def three_runs_one_single_class():
    """Three runs of ``synthetic_metrics()``; the last never saturates."""
    X, meta, y, _ = synthetic_metrics()
    groups = np.repeat([0, 1, 2], 80)
    y = np.where(groups == 2, 0, y)
    return X, meta, y, groups


def without_runs():
    X, meta, y, _ = synthetic_metrics()
    return X, meta, y, None


def wide_metrics(n_runs=10, rows=60, width=120, seed=0):
    """Many runs of many host metrics over four domains, so that the
    interaction products outweigh everything else a fit holds."""
    rng = np.random.default_rng(seed)
    n = n_runs * rows
    load = np.abs(np.sin(np.linspace(0, 3 * n_runs, n))) * 100
    X = load[:, None] * rng.uniform(0.2, 2.0, width) + rng.normal(0, 5, (n, width))
    domains = (Domain.CPU, Domain.MEMORY, Domain.NETWORK, Domain.DISK)
    meta = [
        FeatureMeta(f"m{i}", domains[i % 4], Scope.HOST) for i in range(width)
    ]
    y = (load > 85).astype(np.int64)
    return X, meta, y, np.repeat(np.arange(n_runs), rows)


class TestPipelineConfig:
    def test_default_is_paper_configuration(self):
        config = PipelineConfig()
        assert config.normalize and config.reduction1 == "filter"
        assert config.temporal and config.interactions
        assert config.reduction2 == "filter"

    def test_interactions_without_reduction_rejected(self):
        with pytest.raises(ValueError, match="unfeasible"):
            PipelineConfig(reduction1=None, interactions=True)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError, match="Reductions"):
            PipelineConfig(reduction1="lda")

    def test_admissible_configs_exclude_forbidden_combo(self):
        configs = admissible_configs()
        assert all(
            not (c.interactions and c.reduction1 is None) for c in configs
        )
        assert len(configs) > 20

    def test_describe_readable(self):
        assert PipelineConfig().describe() == "norm/filter/time+mult/filter"


class TestPipeline:
    def test_fit_transform_then_transform_same_columns(self):
        X, meta, y, groups = synthetic_metrics()
        pipeline = MonitorlessPipeline(PipelineConfig(temporal_windows=(1, 5)))
        X_train, out_meta = pipeline.fit_transform(X, meta, y, groups)
        X_again, meta_again = pipeline.transform(X, meta, groups)
        assert X_train.shape == X_again.shape
        assert [m.name for m in out_meta] == [m.name for m in meta_again]

    def test_produces_interaction_features(self):
        X, meta, y, groups = synthetic_metrics()
        pipeline = MonitorlessPipeline(PipelineConfig(temporal_windows=(1,)))
        _, out_meta = pipeline.fit_transform(X, meta, y, groups)
        assert any(m.interaction for m in out_meta)

    def test_pca_variant(self):
        X, meta, y, groups = synthetic_metrics()
        config = PipelineConfig(
            reduction1="pca", interactions=False, temporal=False, reduction2=None
        )
        pipeline = MonitorlessPipeline(config)
        X_out, out_meta = pipeline.fit_transform(X, meta, y, groups)
        assert all(m.domain == Domain.LATENT for m in out_meta)
        assert X_out.shape[0] == X.shape[0]

    def test_minimal_config(self):
        X, meta, y, groups = synthetic_metrics()
        config = PipelineConfig(
            normalize=False, reduction1=None, temporal=False,
            interactions=False, reduction2=None,
        )
        X_out, out_meta = pipeline_out = MonitorlessPipeline(config).fit_transform(
            X, meta, y, groups
        )
        # Only binary levels + log scale + variance filter applied.
        assert X_out.shape[1] >= X.shape[1]

    def test_transform_rejects_meta_that_does_not_describe_X(self):
        X, meta, y, groups = synthetic_metrics()
        pipeline = MonitorlessPipeline(PipelineConfig(temporal_windows=(1, 5)))
        pipeline.fit_transform(X, meta, y, groups)
        with pytest.raises(ValueError, match="meta must describe"):
            pipeline.transform(X, meta[:-1], groups)

    def test_default_fit_never_holds_the_full_product_matrix(self):
        """The second filter ranks each run on its own products, and
        only the kept products are computed for the whole corpus."""
        X, meta, y, groups = wide_metrics()
        pipeline = MonitorlessPipeline()
        tracemalloc.start()
        try:
            pipeline.fit_transform(X, meta, y, groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full_matrix = X.shape[0] * pipeline.reduction2_.n_features_in_ * 8
        assert pipeline.reduction2_.n_features_in_ > 10 * X.shape[1]
        assert peak < full_matrix

    def test_transform_before_fit_raises(self):
        X, meta, _, _ = synthetic_metrics()
        with pytest.raises(RuntimeError, match="fit_transform"):
            MonitorlessPipeline().transform(X, meta)

    def test_grid_search_ranks_configs(self):
        X, meta, y, groups = synthetic_metrics()
        configs = [
            PipelineConfig(temporal=False, interactions=False, reduction2=None),
            PipelineConfig(temporal_windows=(1,)),
        ]
        results = grid_search_pipeline(
            X, meta, y, groups, configs=configs, n_splits=2, n_estimators=8
        )
        assert len(results) == 2
        assert results[0].mean_f1 >= results[1].mean_f1
        assert all(r.n_features > 0 for r in results)


class TestPipelineAgainstReference:
    """``MonitorlessPipeline`` against ``tests/pipeline_reference.py``,
    which fits the public steps on every product of the whole input."""

    @pytest.mark.parametrize(
        "variant", [synthetic_metrics, three_runs_one_single_class, without_runs]
    )
    @pytest.mark.parametrize(
        "config",
        admissible_configs(temporal_windows=(1, 5)),
        ids=PipelineConfig.describe,
    )
    def test_bitwise_equal(self, config, variant):
        X, meta, y, groups = variant()
        pipeline = MonitorlessPipeline(config)
        X_out, out_meta = pipeline.fit_transform(X, meta, y, groups)
        reference, X_ref, ref_meta = reference_fit_transform(
            config, X, meta, y, groups
        )
        assert X_out.shape == X_ref.shape
        assert X_out.tobytes() == X_ref.tobytes()
        assert [m.name for m in out_meta] == [m.name for m in ref_meta]
        assert model_fingerprint(pipeline) == model_fingerprint(reference)

        X_new = synthetic_metrics(seed=1)[0]
        got, got_meta = pipeline.transform(X_new, meta, groups)
        want, want_meta = reference_transform(reference, X_new, meta, groups)
        assert got.tobytes() == want.tobytes()
        assert [m.name for m in got_meta] == [m.name for m in want_meta]
        if "filter" in (config.reduction1, config.reduction2):
            again, _ = pipeline.transform(X, meta, groups)
            assert again.tobytes() == X_out.tobytes()


class TestAggregation:
    def test_or_aggregation(self):
        series = {"a": [0, 0, 1], "b": [0, 1, 0]}
        assert aggregate_or(series).tolist() == [0, 1, 1]

    def test_majority(self):
        series = [[1, 0, 1], [0, 0, 1], [0, 1, 1]]
        assert aggregate_majority(series).tolist() == [0, 0, 1]

    def test_k_of_n(self):
        series = [[1, 0], [1, 0], [0, 0]]
        assert aggregate_k_of_n(series, 2).tolist() == [1, 0]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths"):
            aggregate_or([[0, 1], [0]])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_or([])

    def test_or_upper_bounds_majority(self, rng):
        series = [(rng.random(50) > 0.5).astype(int) for _ in range(5)]
        assert np.all(aggregate_or(series) >= aggregate_majority(series))


class TestThresholdBaselines:
    def _scenario(self):
        rng = np.random.default_rng(0)
        n = 400
        cpu = np.clip(rng.uniform(0, 100, n), 0, 100)
        mem = np.clip(rng.uniform(0, 100, n), 0, 100)
        y = (cpu >= 90).astype(int)
        return [(cpu, mem)], y

    def test_cpu_baseline_finds_true_threshold(self):
        utilizations, y = self._scenario()
        baseline, confusion = tune_threshold_baseline("cpu", utilizations, y, k=0)
        assert abs(baseline.cpu_threshold - 90.0) <= 1.0
        assert confusion.f1 > 0.97

    def test_and_baseline_two_thresholds(self):
        utilizations, y = self._scenario()
        baseline, _ = tune_threshold_baseline("cpu-and-mem", utilizations, y, k=0)
        assert baseline.cpu_threshold is not None
        assert baseline.mem_threshold is not None

    def test_or_detector_predicts_union(self):
        baseline = ThresholdBaseline("cpu-or-mem", 80.0, 70.0)
        cpu = np.array([85.0, 10.0, 10.0])
        mem = np.array([10.0, 75.0, 10.0])
        assert baseline.predict_instance(cpu, mem).tolist() == [1, 1, 0]

    def test_and_detector_predicts_intersection(self):
        baseline = ThresholdBaseline("cpu-and-mem", 80.0, 70.0)
        cpu = np.array([85.0, 85.0, 10.0])
        mem = np.array([75.0, 10.0, 75.0])
        assert baseline.predict_instance(cpu, mem).tolist() == [1, 0, 0]

    def test_label_format(self):
        assert ThresholdBaseline("cpu", 97.0, None).label() == "CPU (97%)"
        assert ThresholdBaseline("cpu-and-mem", 90.0, 50.0).label() == "CPU-AND-MEM"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            tune_threshold_baseline("gpu", [(np.zeros(3), np.zeros(3))], np.zeros(3))

    def test_application_or_aggregation(self):
        baseline = ThresholdBaseline("cpu", 50.0, None)
        utilizations = [
            (np.array([60.0, 10.0]), np.zeros(2)),
            (np.array([10.0, 10.0]), np.zeros(2)),
        ]
        assert baseline.predict_application(utilizations).tolist() == [1, 0]


class TestMonitorlessModel:
    def test_all_six_classifiers_instantiable(self):
        for name in CLASSIFIERS:
            assert make_classifier(name, random_state=0) is not None

    def test_unknown_classifier(self):
        with pytest.raises(ValueError, match="Unknown classifier"):
            make_classifier("catboost")

    def test_fit_predict_roundtrip(self):
        X, meta, y, groups = synthetic_metrics()
        model = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            classifier_params={"n_estimators": 10},
        )
        model.fit(X, meta, y, groups)
        predictions = model.predict(X, meta, groups)
        assert predictions.shape == y.shape
        assert set(np.unique(predictions)) <= {0, 1}
        assert (predictions == y).mean() > 0.9

    def test_lower_threshold_more_positives(self):
        X, meta, y, groups = synthetic_metrics()
        eager = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            prediction_threshold=0.2,
            classifier_params={"n_estimators": 10},
        ).fit(X, meta, y, groups)
        strict = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            prediction_threshold=0.8,
            classifier_params={"n_estimators": 10},
        ).fit(X, meta, y, groups)
        assert eager.predict(X, meta).sum() >= strict.predict(X, meta).sum()

    def test_feature_importances_named(self):
        X, meta, y, groups = synthetic_metrics()
        model = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            classifier_params={"n_estimators": 10},
        ).fit(X, meta, y, groups)
        top = model.feature_importances(top=5)
        assert len(top) == 5
        assert all(isinstance(name, str) and weight >= 0 for name, weight in top)

    def test_save_load_roundtrip(self, tmp_path):
        X, meta, y, groups = synthetic_metrics()
        model = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            classifier_params={"n_estimators": 5},
        ).fit(X, meta, y, groups)
        path = tmp_path / "model.pkl"
        model.save(path)
        loaded = MonitorlessModel.load(path)
        assert np.array_equal(loaded.predict(X, meta), model.predict(X, meta))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="prediction_threshold"):
            MonitorlessModel(prediction_threshold=1.5)

    def test_predict_before_fit(self):
        X, meta, _, _ = synthetic_metrics()
        with pytest.raises(RuntimeError, match="fitted"):
            MonitorlessModel().predict(X, meta)


class _FixedProbabilities:
    """A classifier stub whose positive-class probabilities are fixed."""

    def __init__(self, positive):
        self.positive = np.asarray(positive, dtype=np.float64)

    def predict_proba(self, features):
        return np.column_stack([1.0 - self.positive, self.positive])


class TestFlags:
    def test_threshold_is_inclusive(self):
        model = MonitorlessModel(prediction_threshold=0.4)
        model.pipeline_ = MonitorlessPipeline(PipelineConfig())
        model.classifier_ = _FixedProbabilities([0.4, np.nextafter(0.4, 0.0)])
        np.testing.assert_array_equal(
            model.flags(np.zeros((2, 3))), [True, False]
        )

    def test_margin_classifier_uses_its_own_predict(self):
        X, meta, y, groups = synthetic_metrics()
        model = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            classifier="svc",
        ).fit(X, meta, y, groups)
        assert not hasattr(model.classifier_, "predict_proba")
        features = model.transform(X, meta, groups)
        flags = model.flags(features)
        assert flags.dtype == bool
        np.testing.assert_array_equal(
            flags, model.classifier_.predict(features) == 1
        )
        assert flags.any() and not flags.all()

    def test_predict_is_flags_of_transform(self):
        X, meta, y, groups = synthetic_metrics()
        model = MonitorlessModel(
            pipeline_config=PipelineConfig(temporal_windows=(1,)),
            classifier_params={"n_estimators": 10},
        ).fit(X, meta, y, groups)
        predictions = model.predict(X, meta)
        assert predictions.dtype == np.int64
        np.testing.assert_array_equal(
            predictions, model.flags(model.transform(X, meta)).astype(np.int64)
        )
