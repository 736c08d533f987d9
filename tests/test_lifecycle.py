"""Model lifecycle: drift detection, registry, shadow serving, scenario."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lifecycle import (
    DriftDetector,
    DriftScenarioConfig,
    DriftScenarioRunner,
    LifecycleManager,
    ModelPerformanceTracker,
    ModelRegistry,
    RegistryError,
    RetrainConfig,
    Retrainer,
    ShadowEvaluator,
    StreamingHistograms,
    StreamWindow,
    antagonist_active,
    batch_ks,
    batch_psi,
    bin_counts,
    bin_rows,
    psi_from_counts,
    quantile_edges,
    scenario_workload,
)


# ----------------------------------------------------------------------
# Histogram primitives
# ----------------------------------------------------------------------
class TestDriftPrimitives:
    def test_zero_variance_feature_is_psi_neutral(self):
        """A constant feature bins identically on both sides -> PSI and
        KS exactly 0, never epsilon noise."""
        reference = np.column_stack(
            [np.full(200, 3.7), np.linspace(0.0, 1.0, 200)]
        )
        live = np.column_stack([np.full(80, 3.7), np.linspace(0.0, 1.0, 80)])
        psi = batch_psi(reference, live, n_bins=10)
        ks = batch_ks(reference, live, n_bins=10)
        assert psi[0] == 0.0
        assert ks[0] == 0.0

    def test_identical_sample_gives_zero(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(size=(300, 5))
        assert np.allclose(batch_psi(sample, sample), 0.0)
        assert np.allclose(batch_ks(sample, sample), 0.0)

    def test_mean_shift_is_flagged(self):
        rng = np.random.default_rng(1)
        reference = rng.normal(size=(400, 3))
        live = rng.normal(size=(400, 3)) + np.array([0.0, 0.0, 3.0])
        psi = batch_psi(reference, live)
        assert psi[2] > 1.0
        assert psi[0] < 0.2 and psi[1] < 0.2

    def test_empty_side_contributes_no_evidence(self):
        counts = np.array([[10, 20, 30]])
        zeros = np.zeros_like(counts)
        assert np.array_equal(psi_from_counts(counts, zeros), [0.0])
        assert np.array_equal(psi_from_counts(zeros, counts), [0.0])

    def test_quantile_edges_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            quantile_edges(np.empty((0, 3)), 10)
        with pytest.raises(ValueError, match="n_bins"):
            quantile_edges(np.ones((5, 2)), 1)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_ref=st.integers(12, 60),
        n_live=st.integers(1, 80),
        n_features=st.integers(1, 6),
        n_bins=st.integers(2, 12),
    )
    def test_streaming_equals_batch(
        self, seed, n_ref, n_live, n_features, n_bins
    ):
        """Row-at-a-time streaming histograms reproduce the one-shot
        batch PSI/KS bitwise (same edges, same counts)."""
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(n_ref, n_features))
        live = rng.normal(loc=0.5, size=(n_live, n_features))
        edges = quantile_edges(reference, n_bins)
        streaming = StreamingHistograms(edges, window=n_live)
        for row in live:
            streaming.push(row)
        batch_counts = bin_counts(bin_rows(live, edges), n_features, n_bins)
        assert np.array_equal(streaming.counts, batch_counts)
        ref_counts = bin_counts(
            bin_rows(reference, edges), n_features, n_bins
        )
        assert np.array_equal(
            psi_from_counts(ref_counts, streaming.counts),
            batch_psi(reference, live, n_bins),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(1, 20),
        n_rows=st.integers(1, 60),
    )
    def test_eviction_keeps_exact_tail_window(self, seed, window, n_rows):
        """After arbitrary eviction the counts equal the histogram of
        exactly the last ``window`` rows."""
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(30, 3))
        rows = rng.normal(size=(n_rows, 3))
        edges = quantile_edges(reference, 5)
        streaming = StreamingHistograms(edges, window=window)
        for row in rows:
            streaming.push(row)
        tail = rows[-window:]
        assert len(streaming) == min(n_rows, window)
        assert np.array_equal(
            streaming.counts, bin_counts(bin_rows(tail, edges), 3, 5)
        )


# ----------------------------------------------------------------------
# DriftDetector
# ----------------------------------------------------------------------
def _detector(**overrides):
    kwargs = dict(
        n_bins=5,
        window=40,
        reference_rows=40,
        min_rows=10,
        min_features=1,
        patience=2,
    )
    kwargs.update(overrides)
    return DriftDetector(**kwargs)


class TestDriftDetector:
    def test_reference_collects_from_stream(self):
        rng = np.random.default_rng(0)
        detector = _detector()
        for _ in range(3):
            assert not detector.fitted
            detector.update(rng.normal(size=(15, 4)))
        assert detector.fitted

    def test_never_alarms_before_reference_or_min_rows(self):
        detector = _detector()
        status = detector.check()
        assert not status.drifted and status.n_rows == 0
        rng = np.random.default_rng(1)
        detector.update(rng.normal(size=(40, 4)))  # freezes reference
        detector.update(rng.normal(loc=9.0, size=(5, 4)))  # < min_rows
        status = detector.check()
        assert not status.drifted
        assert status.n_rows == 5

    def test_patience_gates_the_alarm(self):
        rng = np.random.default_rng(2)
        detector = _detector()
        detector.update(rng.normal(size=(40, 4)))
        detector.update(rng.normal(loc=9.0, size=(20, 4)))
        first = detector.check()
        assert not first.drifted and first.consecutive == 1
        second = detector.check()
        assert second.drifted and second.consecutive == 2
        assert second.features_shifted >= 1
        assert second.psi_max > 0.25

    def test_all_imputed_rows_never_alarm(self):
        """A chaos blackout (completeness < 1 everywhere) adds no
        evidence: the live window stays empty and the alarm off."""
        rng = np.random.default_rng(3)
        detector = _detector()
        detector.update(rng.normal(size=(40, 4)))
        shifted = rng.normal(loc=9.0, size=(30, 4))
        detector.update(shifted, completeness=np.zeros(30))
        assert detector.rows_skipped == 30
        assert len(detector.live) == 0
        for _ in range(5):
            assert not detector.check().drifted

    def test_partial_completeness_keeps_clean_rows_only(self):
        rng = np.random.default_rng(4)
        detector = _detector()
        detector.update(rng.normal(size=(40, 4)))
        rows = rng.normal(size=(10, 4))
        completeness = np.array([1.0] * 4 + [0.5] * 6)
        detector.update(rows, completeness=completeness)
        assert len(detector.live) == 4
        assert detector.rows_skipped == 6

    def test_completeness_length_mismatch_raises(self):
        detector = _detector()
        with pytest.raises(ValueError, match="completeness"):
            detector.update(np.ones((3, 4)), completeness=np.ones(2))

    def test_reset_reference_recollects(self):
        rng = np.random.default_rng(5)
        detector = _detector()
        detector.update(rng.normal(size=(40, 4)))
        assert detector.fitted
        detector.reset_reference()
        assert not detector.fitted and detector.live is None
        detector.update(rng.normal(loc=9.0, size=(40, 4)))
        assert detector.fitted  # new baseline is the shifted regime
        detector.update(rng.normal(loc=9.0, size=(15, 4)))
        assert not detector.check().drifted

    def test_single_row_window(self):
        rng = np.random.default_rng(6)
        detector = _detector(window=1, min_rows=1, patience=1)
        detector.update(rng.normal(size=(40, 2)))
        detector.update(np.array([[99.0, 99.0]]))
        assert detector.check().drifted


# ----------------------------------------------------------------------
# Tracker / shadow evaluator
# ----------------------------------------------------------------------
class TestTracker:
    def test_insufficient_evidence_counts_as_healthy(self):
        tracker = ModelPerformanceTracker(window=10, min_resolved=5)
        for t in range(4):
            tracker.record(t, True)
            tracker.resolve(t, False)
        assert tracker.agreement() is None
        assert tracker.healthy()

    def test_agreement_collapse_flips_health(self):
        tracker = ModelPerformanceTracker(
            window=10, min_agreement=0.6, min_resolved=5
        )
        for t in range(10):
            tracker.record(t, True)
            tracker.resolve(t, t % 2 == 0)
        assert tracker.agreement() == 0.5
        assert not tracker.healthy()

    def test_unknown_tick_resolves_to_none(self):
        tracker = ModelPerformanceTracker()
        assert tracker.resolve(99, True) is None

    def test_reset_clears_window(self):
        tracker = ModelPerformanceTracker(min_resolved=1)
        tracker.record(0, True)
        tracker.resolve(0, True)
        tracker.reset()
        assert tracker.agreement() is None
        assert tracker.pending_count == 0


class TestShadowEvaluator:
    def test_bool_predictions_score_exact_accuracy(self):
        evaluator = ShadowEvaluator(window=4, wins_required=1)
        for t, outcome in enumerate([True, True, False, False]):
            result = evaluator.resolve(t, True, outcome, outcome)
        assert result is not None
        assert result.champion_accuracy == 0.5
        assert result.challenger_accuracy == 1.0
        assert result.challenger_won

    def test_fraction_predictions_score_per_row(self):
        """A flagged fraction scores each row against the outcome:
        fraction when the SLO broke, 1 - fraction when it held."""
        evaluator = ShadowEvaluator(window=2, wins_required=1)
        evaluator.resolve(0, 0.25, 1.0, True)
        result = evaluator.resolve(1, 0.25, 0.0, False)
        assert result.champion_accuracy == pytest.approx((0.25 + 0.75) / 2)
        assert result.challenger_accuracy == 1.0

    def test_ties_go_to_the_champion(self):
        evaluator = ShadowEvaluator(window=2, wins_required=1, min_margin=0.0)
        evaluator.resolve(0, True, True, True)
        result = evaluator.resolve(1, True, True, True)
        assert not result.challenger_won
        assert not evaluator.should_promote

    def test_min_margin_hysteresis(self):
        evaluator = ShadowEvaluator(window=2, wins_required=1, min_margin=0.3)
        evaluator.resolve(0, False, True, True)
        result = evaluator.resolve(1, True, True, True)  # 0.5 vs 1.0
        assert result.challenger_won
        evaluator.reset()
        evaluator.resolve(0, False, True, True)
        result = evaluator.resolve(1, True, False, True)  # 0.5 vs 0.5
        assert not result.challenger_won

    def test_win_streak_must_be_consecutive(self):
        evaluator = ShadowEvaluator(window=1, wins_required=2)
        evaluator.resolve(0, False, True, True)  # win
        assert not evaluator.should_promote
        evaluator.resolve(1, True, False, True)  # loss resets streak
        evaluator.resolve(2, False, True, True)  # win
        assert not evaluator.should_promote
        evaluator.resolve(3, False, True, True)  # second consecutive win
        assert evaluator.should_promote
        assert evaluator.windows_completed == 4


# ----------------------------------------------------------------------
# Stream window / retrainer
# ----------------------------------------------------------------------
class TestStreamWindow:
    def test_labeled_skips_unknown_ticks(self):
        stream = StreamWindow(capacity=10)
        stream.push(0, np.ones((2, 3)))
        stream.push(1, np.full((3, 3), 2.0))
        X, y = stream.labeled({1: True})
        assert X.shape == (3, 3)
        assert y.tolist() == [1, 1, 1]

    def test_capacity_evicts_oldest_tick(self):
        stream = StreamWindow(capacity=2)
        for t in range(5):
            stream.push(t, np.full((1, 2), float(t)))
        X, y = stream.labeled({t: False for t in range(5)})
        assert X[:, 0].tolist() == [3.0, 4.0]

    def test_empty_window_labels_to_empty(self):
        stream = StreamWindow(capacity=4)
        X, y = stream.labeled({0: True})
        assert X.shape[0] == 0 and y.shape[0] == 0


class TestRetrainer:
    def _stream(self, model, rng, positives=30, negatives=30):
        width = model.n_engineered_features_
        stream = StreamWindow(capacity=100)
        outcomes = {}
        for t in range(positives):
            stream.push(t, rng.normal(loc=4.0, size=(1, width)))
            outcomes[t] = True
        for t in range(positives, positives + negatives):
            stream.push(t, rng.normal(size=(1, width)))
            outcomes[t] = False
        return stream, outcomes

    def test_insufficient_rows_returns_none(self, tiny_model):
        rng = np.random.default_rng(0)
        retrainer = Retrainer(RetrainConfig(min_rows=1000))
        stream, outcomes = self._stream(tiny_model, rng)
        assert retrainer.retrain(tiny_model, stream, outcomes) is None

    def test_single_class_evidence_returns_none(self, tiny_model):
        rng = np.random.default_rng(1)
        retrainer = Retrainer(RetrainConfig(min_rows=10))
        stream, outcomes = self._stream(tiny_model, rng, positives=0)
        assert retrainer.retrain(tiny_model, stream, outcomes) is None

    def test_challenger_shares_frozen_pipeline(self, tiny_model):
        rng = np.random.default_rng(2)
        retrainer = Retrainer(RetrainConfig(min_rows=10))
        stream, outcomes = self._stream(tiny_model, rng)
        challenger, info = retrainer.retrain(tiny_model, stream, outcomes)
        assert challenger.pipeline_ is tiny_model.pipeline_
        assert challenger.classifier_ is not tiny_model.classifier_
        assert info["stream_rows"] == 60 and info["corpus_rows"] == 0
        assert 0.0 < info["positive_fraction"] < 1.0
        assert len(info["corpus_fingerprint"]) == 64


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_register_transition_and_reload(self, tiny_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.register(
            tiny_model, reason="bootstrap", stage="champion"
        )
        assert record["version"] == 1
        assert (tmp_path / "v1.model").exists()

        clone = pickle.loads(pickle.dumps(tiny_model))
        clone.prediction_threshold = 0.55  # different fingerprint
        challenger = registry.register(
            clone, reason="retrain@5:drift", tick=5, parent_version=1
        )
        assert challenger["version"] == 2
        registry.transition(2, "shadow", tick=5, reason="drift")
        registry.transition(2, "champion", tick=9, reason="shadow-win")

        # Promotion auto-retired the previous champion.
        reloaded = ModelRegistry(tmp_path)
        stages = {r["version"]: r["stage"] for r in reloaded.lineage()}
        assert stages == {1: "retired", 2: "champion"}
        assert reloaded.champion()["version"] == 2
        assert any(
            e["version"] == 1 and "superseded by v2" in e["reason"]
            for e in reloaded.events
        )

    def test_register_is_idempotent(self, tiny_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = registry.register(tiny_model, reason="bootstrap")
        again = registry.register(tiny_model, reason="bootstrap")
        assert again["version"] == first["version"]
        assert len(registry) == 1

    def test_transition_replay_is_noop(self, tiny_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register(tiny_model, reason="bootstrap")
        registry.transition(1, "shadow", tick=2)
        events = registry.events
        registry.transition(1, "shadow", tick=2)
        assert registry.events == events

    def test_illegal_transition_raises(self, tiny_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register(tiny_model, reason="bootstrap")
        with pytest.raises(RegistryError, match="Illegal transition"):
            registry.transition(1, "champion")  # candidate -> champion
        with pytest.raises(RegistryError, match="No version 7"):
            registry.transition(7, "shadow")
        with pytest.raises(RegistryError, match="Unknown stage"):
            registry.register(tiny_model, reason="x", stage="zombie")

    def test_load_roundtrip_verifies_fingerprint(self, tiny_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register(tiny_model, reason="bootstrap")
        loaded = registry.load(1)
        assert loaded.n_engineered_features_ == tiny_model.n_engineered_features_


# ----------------------------------------------------------------------
# Manager (no simulation)
# ----------------------------------------------------------------------
class TestLifecycleManager:
    def test_bootstrap_registers_champion(self, tiny_model, tmp_path):
        manager = LifecycleManager(tiny_model, registry=tmp_path)
        assert manager.champion_version == 1
        assert manager.registry.champion()["reason"] == "bootstrap"
        assert manager.challenger is None

    def test_empty_batch_is_ignored(self, tiny_model, tmp_path):
        manager = LifecycleManager(tiny_model, registry=tmp_path)
        width = tiny_model.n_engineered_features_
        assert manager.observe(0, np.empty((0, width)), []) is None
        assert manager._pending == {}

    def test_outcomes_resolve_after_label_delay(self, tiny_model, tmp_path):
        manager = LifecycleManager(
            tiny_model, registry=tmp_path, label_delay=2
        )
        manager.tracker.min_resolved = 1
        width = tiny_model.n_engineered_features_
        rows = np.zeros((3, width))
        manager.observe(0, rows, [True, False, False])
        manager.outcome(0, True)
        manager.step(0)
        manager.step(1)
        assert manager.tracker.agreement() is None  # not matured yet
        manager.step(2)
        assert manager.tracker.agreement() == 1.0

    def test_imputed_rows_stay_out_of_stream(self, tiny_model, tmp_path):
        manager = LifecycleManager(
            tiny_model,
            registry=tmp_path,
            detector=_detector(),
            retrainer=Retrainer(RetrainConfig(min_rows=10)),
        )
        width = tiny_model.n_engineered_features_
        rows = np.ones((4, width))
        manager.observe(0, rows, [False] * 4, completeness=np.zeros(4))
        assert len(manager.stream) == 0
        assert manager.detector.rows_skipped == 4
        manager.observe(1, rows, [False] * 4, completeness=np.ones(4))
        assert manager.stream.row_count == 4


# ----------------------------------------------------------------------
# Policy wiring satellites
# ----------------------------------------------------------------------
class TestPolicyWiring:
    def test_monitorless_policy_defaults_to_no_lifecycle(self, tiny_model):
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent

        policy = MonitorlessPolicy(
            tiny_model, TelemetryAgent(seed=0), streaming=True
        )
        assert policy.lifecycle is None

    def test_lifecycle_requires_streaming(self, tiny_model, tmp_path):
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent

        manager = LifecycleManager(tiny_model, registry=tmp_path)
        with pytest.raises(ValueError, match="streaming"):
            MonitorlessPolicy(
                tiny_model, TelemetryAgent(seed=0), lifecycle=manager
            )

    def test_fleet_phase_shape_unchanged_without_lifecycle(self, tiny_model):
        from repro.fleet.policy import FleetPolicy

        assert "shadow" not in FleetPolicy(tiny_model).phase_seconds
        registry = ModelRegistry.__new__(ModelRegistry)  # placeholder
        manager = object.__new__(LifecycleManager)
        with_lifecycle = FleetPolicy(tiny_model, lifecycle=manager)
        assert with_lifecycle.phase_seconds["shadow"] == 0.0

    def test_fallback_records_typed_classifier_error(
        self, tiny_model, monkeypatch
    ):
        from tests.test_reliability import _drive, _fallback_setup, broken_model

        simulation, policy = _fallback_setup(tiny_model, [])
        _drive(simulation, policy, 3)
        monkeypatch.setattr(
            policy, "model", broken_model(tiny_model, ValueError)
        )
        obs.reset()
        obs.enable()
        try:
            simulation.step({"teastore": 30.0})
            policy.saturated_services(simulation, "teastore", 3)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["fallback.classifier_errors"] >= 1
        assert counters["fallback.classifier_error{type=ValueError}"] >= 1
        assert policy.last_classifier_error == "ValueError"


# ----------------------------------------------------------------------
# Checkpoint model-fingerprint guard (satellite)
# ----------------------------------------------------------------------
class TestResumeFingerprint:
    @pytest.fixture()
    def checkpoint(self, tiny_model, tmp_path):
        config = DriftScenarioConfig(duration=40, antagonist=None)
        runner = DriftScenarioRunner(
            tiny_model, tmp_path / "registry", config
        )
        path = tmp_path / "scenario.ckpt"
        runner.run_until(6, checkpoint_path=path, checkpoint_interval=3)
        return path

    def test_same_model_resumes(self, tiny_model, checkpoint):
        from repro.orchestrator.loop import Orchestrator

        resumed = Orchestrator.resume_from(checkpoint, model=tiny_model)
        assert resumed._t == 6

    def test_different_model_is_refused(self, tiny_model, checkpoint):
        from repro.orchestrator.loop import Orchestrator
        from repro.reliability.checkpoint import CheckpointError

        other = pickle.loads(pickle.dumps(tiny_model))
        other.prediction_threshold = 0.55
        with pytest.raises(CheckpointError, match="refusing to swap"):
            Orchestrator.resume_from(checkpoint, model=other)

    def test_swap_refused_under_a_lifecycle(self, tiny_model, checkpoint):
        """The manager's registry owns the serving model: even an
        explicitly allowed swap is refused, instead of being silently
        undone by the champion on the next tick."""
        from repro.orchestrator.loop import Orchestrator
        from repro.reliability.checkpoint import CheckpointError

        other = pickle.loads(pickle.dumps(tiny_model))
        other.prediction_threshold = 0.55
        with pytest.raises(CheckpointError, match="lifecycle manager"):
            Orchestrator.resume_from(
                checkpoint, model=other, allow_model_swap=True
            )

    def test_allowed_swap_serves_without_a_lifecycle(
        self, tiny_model, tmp_path
    ):
        """A lifecycle-free streaming checkpoint resumed with another
        model (threshold 0: every row flags) serves that model."""
        from repro.orchestrator.loop import Orchestrator
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent
        from tests.test_reliability import _threshold_orchestrator

        orchestrator = _threshold_orchestrator()
        orchestrator.policy = MonitorlessPolicy(
            tiny_model, TelemetryAgent(seed=0), streaming=True
        )
        orchestrator.start()
        for _ in range(4):
            orchestrator.tick({"teastore": 20.0})
        path = tmp_path / "stream.ckpt"
        orchestrator.save_checkpoint(path)

        other = pickle.loads(pickle.dumps(tiny_model))
        other.prediction_threshold = 0.0
        resumed = Orchestrator.resume_from(
            path, model=other, allow_model_swap=True
        )
        obs.reset()
        obs.enable()
        try:
            resumed.tick({"teastore": 20.0})
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert resumed.policy.model is other
        assert counters["policy.classified_instances"] > 0
        assert (
            counters["policy.saturation_verdicts"]
            == counters["policy.classified_instances"]
        )


# ----------------------------------------------------------------------
# The end-to-end drift scenario (slow; the PR's acceptance path)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario_result(tiny_model, tmp_path_factory):
    from repro.lifecycle import run_drift_scenario

    registry_dir = tmp_path_factory.mktemp("registry-fresh")
    return run_drift_scenario(tiny_model, registry_dir)


class TestDriftScenario:
    def test_workload_steps_at_onset(self):
        config = DriftScenarioConfig(duration=100, workload_rate=50.0)
        workload = scenario_workload(config)
        assert workload[: config.onset_tick].tolist() == [50.0] * 45
        assert np.allclose(workload[config.onset_tick :], 60.0)
        assert not antagonist_active(config, config.onset_tick - 1)
        assert antagonist_active(config, config.onset_tick)
        off = config.onset_tick + int(
            config.antagonist_duty * config.antagonist_period
        )
        assert not antagonist_active(config, off)

    def test_detects_retrains_and_promotes(self, scenario_result):
        result = scenario_result
        onset = result.onset_tick
        assert result.detection_tick is not None
        # Detection within the configured window after the onset: the
        # live window holds ~2 antagonist periods of rows.
        assert onset <= result.detection_tick <= onset + 2 * 40
        assert result.retrain_tick >= result.detection_tick
        assert result.promoted
        assert result.promotion_tick > result.retrain_tick
        assert result.champion_version == 2

    def test_registry_end_state(self, scenario_result):
        stages = {
            record["version"]: record["stage"]
            for record in scenario_result.lineage
        }
        assert stages[1] == "retired"
        assert stages[2] == "champion"
        parents = {
            record["version"]: record["parent_version"]
            for record in scenario_result.lineage
        }
        assert parents[2] == 1

    def test_promotion_history_reproduces_across_n_jobs(
        self, tiny_model, scenario_result, tmp_path
    ):
        from repro.lifecycle import run_drift_scenario

        config = DriftScenarioConfig(n_jobs=2)
        parallel = run_drift_scenario(tiny_model, tmp_path, config)
        assert json.dumps(
            parallel.promotion_history(), sort_keys=True
        ) == json.dumps(scenario_result.promotion_history(), sort_keys=True)

    def test_promotion_history_reproduces_across_kill_and_resume(
        self, tiny_model, scenario_result, tmp_path
    ):
        config = DriftScenarioConfig()
        checkpoint = tmp_path / "scenario.ckpt"
        runner = DriftScenarioRunner(tiny_model, tmp_path / "reg", config)
        runner.run_until(
            200, checkpoint_path=checkpoint, checkpoint_interval=50
        )
        del runner  # the "kill": only the checkpoint file survives

        resumed = DriftScenarioRunner.resume(checkpoint, config)
        assert resumed.resumed_from_tick == 200
        resumed.run_until()
        result = resumed.finish()
        assert json.dumps(
            result.promotion_history(), sort_keys=True
        ) == json.dumps(scenario_result.promotion_history(), sort_keys=True)
