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
    ANTAGONIST_DUTY,
    ANTAGONIST_PERIOD,
    ANTAGONIST_RATE,
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
    bin_counts,
    bin_rows,
    psi_from_counts,
    quantile_edges,
    scenario_workload,
)
from repro.lifecycle.drift import (
    MIN_FEATURES,
    MIN_ROWS,
    PATIENCE,
    PSI_THRESHOLD,
    REFERENCE_ROWS,
    WINDOW_ROWS,
)
from repro.lifecycle.manager import LABEL_DELAY
from repro.lifecycle.retrain import MIN_ROWS as RETRAIN_MIN_ROWS
from repro.lifecycle.retrain import STREAM_CAPACITY
from repro.lifecycle.scenario import WORKLOAD_RATE
from repro.lifecycle.shadow import MIN_MARGIN, SHADOW_WINDOW, WINS_REQUIRED
from repro.lifecycle.tracker import AGREEMENT_WINDOW, MIN_RESOLVED
from tests.drift_reference import batch_ks, batch_psi


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
WIDTH = MIN_FEATURES  # every feature must shift for a check to count


def _feed(detector, rows):
    """Update with fully observed rows."""
    detector.update(rows, np.ones(rows.shape[0]))


def _frozen(rng):
    """A detector whose reference is frozen on standard normal rows."""
    detector = DriftDetector()
    _feed(detector, rng.normal(size=(REFERENCE_ROWS, WIDTH)))
    assert detector.fitted
    return detector


class TestDriftDetector:
    def test_reference_collects_from_stream(self):
        rng = np.random.default_rng(0)
        detector = DriftDetector()
        for _ in range(4):
            assert not detector.fitted
            _feed(detector, rng.normal(size=(REFERENCE_ROWS // 4, WIDTH)))
        assert detector.fitted

    def test_never_alarms_before_reference_or_min_rows(self):
        detector = DriftDetector()
        status = detector.check()
        assert not status.drifted and status.n_rows == 0
        rng = np.random.default_rng(1)
        _feed(detector, rng.normal(size=(REFERENCE_ROWS, WIDTH)))  # freezes
        _feed(detector, rng.normal(loc=9.0, size=(MIN_ROWS - 1, WIDTH)))
        for _ in range(PATIENCE):
            status = detector.check()
            assert not status.drifted
        assert status.n_rows == MIN_ROWS - 1

    def test_patience_gates_the_alarm(self):
        rng = np.random.default_rng(2)
        detector = _frozen(rng)
        _feed(detector, rng.normal(loc=9.0, size=(MIN_ROWS, WIDTH)))
        for consecutive in range(1, PATIENCE):
            status = detector.check()
            assert not status.drifted and status.consecutive == consecutive
        status = detector.check()
        assert status.drifted and status.consecutive == PATIENCE
        assert status.features_shifted == WIDTH
        assert status.psi_max > PSI_THRESHOLD

    def test_too_few_shifted_features_never_alarm(self):
        rng = np.random.default_rng(3)
        detector = _frozen(rng)
        rows = rng.normal(size=(MIN_ROWS, WIDTH))
        rows[:, 1:] += 9.0  # all but one feature shift
        _feed(detector, rows)
        for _ in range(PATIENCE + 1):
            status = detector.check()
            assert not status.drifted
        assert status.features_shifted == MIN_FEATURES - 1

    def test_all_imputed_rows_never_alarm(self):
        """A chaos blackout (completeness < 1 everywhere) adds no
        evidence: the live window stays empty and the alarm off."""
        rng = np.random.default_rng(4)
        detector = _frozen(rng)
        shifted = rng.normal(loc=9.0, size=(MIN_ROWS, WIDTH))
        detector.update(shifted, np.zeros(MIN_ROWS))
        assert detector.rows_skipped == MIN_ROWS
        assert len(detector.live) == 0
        for _ in range(PATIENCE + 2):
            assert not detector.check().drifted

    def test_partial_completeness_keeps_clean_rows_only(self):
        rng = np.random.default_rng(5)
        detector = _frozen(rng)
        rows = rng.normal(size=(10, WIDTH))
        completeness = np.array([1.0] * 4 + [0.5] * 6)
        detector.update(rows, completeness)
        assert len(detector.live) == 4
        assert detector.rows_skipped == 6

    def test_completeness_length_mismatch_raises(self):
        detector = DriftDetector()
        with pytest.raises(ValueError, match="completeness"):
            detector.update(np.ones((3, WIDTH)), np.ones(2))

    def test_reset_reference_recollects(self):
        rng = np.random.default_rng(6)
        detector = _frozen(rng)
        detector.reset_reference()
        assert not detector.fitted and detector.live is None
        _feed(detector, rng.normal(loc=9.0, size=(REFERENCE_ROWS, WIDTH)))
        assert detector.fitted  # new baseline is the shifted regime
        _feed(detector, rng.normal(loc=9.0, size=(MIN_ROWS, WIDTH)))
        for _ in range(PATIENCE):
            assert not detector.check().drifted

    def test_live_window_holds_the_last_rows(self):
        """A shifted stretch alarms; once as many healthy rows have
        pushed it out of the live window, its evidence is gone."""
        rng = np.random.default_rng(7)
        detector = _frozen(rng)
        _feed(detector, rng.normal(loc=9.0, size=(WINDOW_ROWS, WIDTH)))
        for _ in range(PATIENCE):
            status = detector.check()
        assert status.drifted
        _feed(detector, rng.normal(size=(WINDOW_ROWS, WIDTH)))
        assert len(detector.live) == WINDOW_ROWS
        status = detector.check()
        assert not status.drifted and status.features_shifted == 0


# ----------------------------------------------------------------------
# Tracker / shadow evaluator
# ----------------------------------------------------------------------
def _resolve(tracker, ticks, agreed):
    for t in ticks:
        tracker.record(t, True)
        tracker.resolve(t, agreed)


class TestTracker:
    def test_agreement_needs_min_resolved_ticks(self):
        tracker = ModelPerformanceTracker()
        _resolve(tracker, range(MIN_RESOLVED - 1), False)
        assert tracker.agreement() is None
        _resolve(tracker, [MIN_RESOLVED - 1], True)
        assert tracker.agreement() == 1.0 / MIN_RESOLVED

    def test_agreement_rolls_over_the_window(self):
        tracker = ModelPerformanceTracker()
        _resolve(tracker, range(10), False)
        _resolve(tracker, range(10, 10 + AGREEMENT_WINDOW), True)
        assert tracker.agreement() == 1.0

    def test_unknown_tick_resolves_to_none(self):
        tracker = ModelPerformanceTracker()
        assert tracker.resolve(99, True) is None

    def test_reset_clears_window(self):
        tracker = ModelPerformanceTracker()
        _resolve(tracker, range(MIN_RESOLVED), True)
        tracker.record(MIN_RESOLVED, True)
        tracker.reset()
        assert tracker.agreement() is None
        assert tracker.pending_count == 0


def _shadow_window(evaluator, champion_misses, start=0):
    """Resolve one window of violated ticks: the challenger always flags,
    the champion misses the first ``champion_misses`` ticks."""
    result = None
    for i in range(SHADOW_WINDOW):
        result = evaluator.resolve(start + i, i >= champion_misses, True, True)
    return result


class TestShadowEvaluator:
    def test_bool_predictions_score_exact_accuracy(self):
        evaluator = ShadowEvaluator()
        outcomes = [t % 2 == 0 for t in range(SHADOW_WINDOW)]
        results = [
            evaluator.resolve(t, True, outcome, outcome)
            for t, outcome in enumerate(outcomes)
        ]
        assert results[:-1] == [None] * (SHADOW_WINDOW - 1)
        result = results[-1]
        assert (result.start_tick, result.end_tick) == (0, SHADOW_WINDOW - 1)
        assert result.champion_accuracy == 0.5
        assert result.challenger_accuracy == 1.0
        assert result.challenger_won

    def test_fraction_predictions_score_per_row(self):
        """A flagged fraction scores each row against the outcome:
        fraction when the SLO broke, 1 - fraction when it held."""
        evaluator = ShadowEvaluator()
        for t in range(SHADOW_WINDOW):
            violated = t % 2 == 0
            result = evaluator.resolve(t, 0.25, float(violated), violated)
        assert result.champion_accuracy == pytest.approx((0.25 + 0.75) / 2)
        assert result.challenger_accuracy == 1.0

    def test_ties_go_to_the_champion(self):
        evaluator = ShadowEvaluator()
        result = _shadow_window(evaluator, champion_misses=0)
        assert not result.challenger_won
        assert not evaluator.should_promote

    def test_min_margin_hysteresis(self):
        """One miss in a window is within the margin, two are not."""
        assert 1 / SHADOW_WINDOW < MIN_MARGIN < 2 / SHADOW_WINDOW
        evaluator = ShadowEvaluator()
        assert not _shadow_window(evaluator, champion_misses=1).challenger_won
        evaluator.reset()
        assert _shadow_window(evaluator, champion_misses=2).challenger_won

    def test_win_streak_must_be_consecutive(self):
        assert WINS_REQUIRED == 2
        evaluator = ShadowEvaluator()
        for index, misses in enumerate([SHADOW_WINDOW, 0, SHADOW_WINDOW]):
            # win, tie (which resets the streak), win
            _shadow_window(evaluator, misses, start=index * SHADOW_WINDOW)
            assert not evaluator.should_promote
        _shadow_window(evaluator, SHADOW_WINDOW, start=3 * SHADOW_WINDOW)
        assert evaluator.should_promote
        assert evaluator.windows_completed == 4


# ----------------------------------------------------------------------
# Stream window / retrainer
# ----------------------------------------------------------------------
class TestStreamWindow:
    def test_labeled_skips_unknown_ticks(self):
        stream = StreamWindow()
        stream.push(0, np.ones((2, 3)))
        stream.push(1, np.full((3, 3), 2.0))
        X, y = stream.labeled({1: True})
        assert X.shape == (3, 3)
        assert y.tolist() == [1, 1, 1]

    def test_capacity_evicts_oldest_tick(self):
        stream = StreamWindow()
        ticks = range(STREAM_CAPACITY + 2)
        for t in ticks:
            stream.push(t, np.full((1, 2), float(t)))
        X, y = stream.labeled({t: False for t in ticks})
        assert X[:, 0].tolist() == [float(t) for t in ticks[2:]]

    def test_empty_window_labels_to_empty(self):
        stream = StreamWindow()
        X, y = stream.labeled({0: True})
        assert X.shape[0] == 0 and y.shape[0] == 0


class TestRetrainer:
    def _stream(self, model, rng, positives=30, negatives=30):
        width = model.n_engineered_features_
        stream = StreamWindow()
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
        retrainer = Retrainer(RetrainConfig())
        stream, outcomes = self._stream(
            tiny_model, rng, negatives=RETRAIN_MIN_ROWS - 31
        )
        assert retrainer.retrain(tiny_model, stream, outcomes) is None

    def test_single_class_evidence_returns_none(self, tiny_model):
        rng = np.random.default_rng(1)
        retrainer = Retrainer(RetrainConfig())
        stream, outcomes = self._stream(
            tiny_model, rng, positives=0, negatives=RETRAIN_MIN_ROWS
        )
        assert retrainer.retrain(tiny_model, stream, outcomes) is None

    def test_challenger_shares_frozen_pipeline(self, tiny_model):
        rng = np.random.default_rng(2)
        retrainer = Retrainer(RetrainConfig())
        stream, outcomes = self._stream(tiny_model, rng)
        challenger, info = retrainer.retrain(tiny_model, stream, outcomes)
        assert challenger.pipeline_ is tiny_model.pipeline_
        assert challenger.classifier_ is not tiny_model.classifier_
        assert info["stream_rows"] == RETRAIN_MIN_ROWS
        assert info["corpus_rows"] == 0
        assert 0.0 < info["positive_fraction"] < 1.0
        assert len(info["corpus_fingerprint"]) == 64


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _small_registry(root) -> bytes:
    """A registry with a promotion history; returns its index bytes."""
    registry = ModelRegistry(root)
    registry.register(
        {"weights": [1.0, 2.0]}, reason="bootstrap", stage="champion", tick=0
    )
    registry.register(
        {"weights": [1.5, 2.0]}, reason="retrain@5:drift", tick=5,
        parent_version=1, corpus_fingerprint="ab" * 32,
    )
    registry.transition(2, "shadow", tick=5, reason="drift")
    registry.transition(2, "champion", tick=9, reason="shadow-win")
    return (root / "registry.json").read_bytes()


class TestCorruptRegistryIndex:
    """A damaged ``registry.json`` fails with :class:`RegistryError`
    naming the file, never with a bare exception."""

    @pytest.mark.parametrize(
        "content",
        [
            b"[1]",
            b'{"records": 5}',
            b'{"records": [1]}',
            b'{"records": [], "events": {}}',
            b'{"rec',
            b"\xff",
        ],
        ids=["list", "records-int", "record-int", "events-dict", "truncated",
             "not-utf8"],
    )
    def test_corrupt_index_raises_registry_error(self, tmp_path, content):
        (tmp_path / "registry.json").write_bytes(content)
        with pytest.raises(RegistryError, match="registry.json"):
            ModelRegistry(tmp_path)

    @pytest.mark.parametrize(
        "field, value",
        [("tick", None), ("stage", "zombie"), ("version", 7)],
        ids=["missing-key", "unknown-stage", "out-of-order-version"],
    )
    def test_bad_record_raises_registry_error(self, tmp_path, field, value):
        state = json.loads(_small_registry(tmp_path))
        if value is None:
            del state["records"][1][field]
        else:
            state["records"][1][field] = value
        (tmp_path / "registry.json").write_text(json.dumps(state))
        with pytest.raises(RegistryError, match="registry.json"):
            ModelRegistry(tmp_path)

    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        return _small_registry(tmp_path_factory.mktemp("registry"))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_truncated_or_flipped_index(self, tmp_path_factory, index, data):
        root = tmp_path_factory.getbasetemp() / "fuzz-registry"
        root.mkdir(exist_ok=True)
        offset = data.draw(st.integers(0, len(index) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            damaged = index[:offset]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            damaged = (
                index[:offset] + bytes([index[offset] ^ mask])
                + index[offset + 1:]
            )
        (root / "registry.json").write_bytes(damaged)
        try:
            registry = ModelRegistry(root)
            registry.lineage()
            registry.champion()
            registry.record(1)
        except RegistryError:
            pass


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
def _manager(model, root) -> LifecycleManager:
    return LifecycleManager(
        model, registry=ModelRegistry(root), retrain=RetrainConfig()
    )


class TestLifecycleManager:
    def test_bootstrap_registers_champion(self, tiny_model, tmp_path):
        manager = _manager(tiny_model, tmp_path)
        assert manager.champion_version == 1
        assert manager.registry.champion()["reason"] == "bootstrap"
        assert manager.challenger is None

    def test_empty_batch_is_ignored(self, tiny_model, tmp_path):
        manager = _manager(tiny_model, tmp_path)
        width = tiny_model.n_engineered_features_
        empty = np.empty((0, width))
        assert manager.observe(0, empty, [], np.empty(0)) is None
        assert manager._pending == {}

    def test_outcomes_resolve_after_label_delay(self, tiny_model, tmp_path):
        manager = _manager(tiny_model, tmp_path)
        width = tiny_model.n_engineered_features_
        rows = np.zeros((3, width))
        last = MIN_RESOLVED - 1
        for t in range(last + LABEL_DELAY):
            if t <= last:
                manager.observe(t, rows, [True, False, False], np.ones(3))
                manager.outcome(t, True)
            manager.step(t)
        assert manager.tracker.agreement() is None  # tick `last` is pending
        manager.step(last + LABEL_DELAY)
        assert manager.tracker.agreement() == 1.0

    def test_imputed_rows_stay_out_of_stream(self, tiny_model, tmp_path):
        manager = _manager(tiny_model, tmp_path)
        width = tiny_model.n_engineered_features_
        rows = np.ones((4, width))
        manager.observe(0, rows, [False] * 4, np.zeros(4))
        assert len(manager.stream) == 0
        assert manager.detector.rows_skipped == 4
        manager.observe(1, rows, [False] * 4, np.ones(4))
        assert manager.stream.row_count == 4


# ----------------------------------------------------------------------
# Policy wiring satellites
# ----------------------------------------------------------------------
class TestPolicyWiring:
    def test_monitorless_policy_defaults_to_no_lifecycle(self, tiny_model):
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent

        policy = MonitorlessPolicy(tiny_model, TelemetryAgent(seed=0))
        assert policy.lifecycle is None

    def test_lifecycle_requires_streaming(self, tiny_model, tmp_path):
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent

        manager = _manager(tiny_model, tmp_path)
        with pytest.raises(ValueError, match="streaming"):
            MonitorlessPolicy(
                tiny_model, TelemetryAgent(seed=0), streaming=False,
                lifecycle=manager,
            )

    def test_plain_orchestrator_reports_outcome_then_step(self, tiny_model):
        """Each tick of a plain loop ends with the manager's hooks: the
        policy's ``observe``, then ``outcome`` with the tick's SLO
        verdict, then ``step``."""
        from repro.datasets.experiments import (
            teastore_scaling_rules,
            teastore_simulation,
        )
        from repro.orchestrator.loop import Orchestrator
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent
        from repro.workloads.patterns import linear_ramp

        spy = _HookSpy(tiny_model)
        policy = MonitorlessPolicy(
            tiny_model, TelemetryAgent(seed=0), lifecycle=spy
        )
        orchestrator = Orchestrator(
            teastore_simulation(0), "teastore", policy,
            teastore_scaling_rules(),
        )
        ticks = 40
        result = orchestrator.run({"teastore": linear_ramp(ticks, 100, 900)})
        assert result.slo_violation_count > 0
        assert spy.calls == _expected_hooks(spy, result.violations)

    def test_fleet_shard_reports_any_cell_violation(self, tiny_model):
        """The shard runner ends its ticks the same way; the outcome is
        violated when any of its cells violated."""
        from repro.fleet.orchestrator import (
            FleetShardRunner,
            default_fleet_workloads,
            make_fleet_specs,
        )

        spy = _HookSpy(tiny_model)
        ticks = 40
        runner = FleetShardRunner(0, make_fleet_specs(2), tiny_model)
        runner.policy.lifecycle = spy
        rates = default_fleet_workloads(2, ticks, low=100.0, high=900.0)
        runner.start()
        for t in range(ticks):
            runner.tick(rates[:, t])
        first, second = (
            cell.violations for cell in runner.finish().cells.values()
        )
        # Some ticks have exactly one violating cell.
        assert (first != second).any()
        assert spy.calls == _expected_hooks(spy, first | second)

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


class _HookSpy:
    """Stands in for a ``LifecycleManager``: serves a fixed champion and
    records the loop's calls into it."""

    def __init__(self, champion):
        self.champion = champion
        self.calls = []

    def observe(self, t, features, flags, completeness):
        self.calls.append(("observe", t))

    def outcome(self, t, violated):
        self.calls.append(("outcome", t, violated))

    def step(self, t):
        self.calls.append(("step", t))


def _expected_hooks(spy, violations) -> list:
    """Per tick: ``observe`` if the tick classified rows, then
    ``outcome`` with that tick's SLO verdict, then ``step``."""
    observed = {call[1] for call in spy.calls if call[0] == "observe"}
    assert len(observed) > len(violations) // 2
    expected = []
    for t, violated in enumerate(violations.tolist()):
        if t in observed:
            expected.append(("observe", t))
        expected.append(("outcome", t, violated))
        expected.append(("step", t))
    return expected


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
            tiny_model, TelemetryAgent(seed=0)
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
        config = DriftScenarioConfig(duration=100)
        workload = scenario_workload(config)
        assert workload[: config.onset_tick].tolist() == [WORKLOAD_RATE] * 45
        assert np.allclose(workload[config.onset_tick :], 1.2 * WORKLOAD_RATE)
        assert not antagonist_active(config, config.onset_tick - 1)
        assert antagonist_active(config, config.onset_tick)
        off = config.onset_tick + int(ANTAGONIST_DUTY * ANTAGONIST_PERIOD)
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

    def test_default_scenario_outcome_is_pinned(self, scenario_result):
        """Every decision of the default scenario on ``tiny_model``:
        two drift alarms, two retrains, one promotion, and the loop's
        SLO violations and scale-outs (model fingerprints are left out:
        they hash pickles whose bytes follow numpy's module paths)."""
        history = [
            (entry["tick"], entry["event"], entry["version"], entry["reason"])
            for entry in scenario_result.history
        ]
        assert history == [
            (180, "drift", None,
             "33 features shifted (psi_max=0.376, ks_max=0.216)"),
            (180, "retrain", 2, "drift: 2341 stream + 0 corpus rows"),
            (231, "promote", 2, "won 2 consecutive windows vs v1"),
            (310, "drift", None,
             "66 features shifted (psi_max=0.860, ks_max=0.243)"),
            (310, "retrain", 3, "drift: 3333 stream + 0 corpus rows"),
        ]
        events = [
            (event["tick"], event["version"], event["from"], event["to"],
             event["reason"])
            for event in scenario_result.registry_events
        ]
        assert events == [
            (180, 2, "candidate", "shadow", "drift"),
            (231, 1, "champion", "retired", "superseded by v2"),
            (231, 2, "shadow", "champion", "shadow-win"),
            (310, 3, "candidate", "shadow", "drift"),
        ]
        assert scenario_result.violations == 115
        assert scenario_result.scale_outs == 21

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

    def test_plain_orchestrator_reproduces_the_promotion_history(
        self, tiny_model, scenario_result, tmp_path
    ):
        """Feeding the scenario's arrivals straight to its orchestrator,
        without ``run_until``, detects, retrains and promotes alike."""
        config = DriftScenarioConfig()
        runner = DriftScenarioRunner(tiny_model, tmp_path, config)
        for t in range(config.duration):
            arrivals = {"teastore": float(runner.workload[t])}
            if antagonist_active(config, t):
                arrivals[runner.antagonist_name] = ANTAGONIST_RATE
            runner.orchestrator.tick(arrivals)
        result = runner.finish()
        assert result.promoted
        assert json.dumps(
            result.promotion_history(), sort_keys=True
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

        resumed = DriftScenarioRunner.resume(checkpoint)
        assert resumed.resumed_from_tick == 200
        resumed.run_until()
        result = resumed.finish()
        assert json.dumps(
            result.promotion_history(), sort_keys=True
        ) == json.dumps(scenario_result.promotion_history(), sort_keys=True)

    def test_resume_continues_under_the_checkpointed_config(
        self, tiny_model, tmp_path
    ):
        """A shorter scenario resumes to its own end, with its own onset,
        not under the 360-tick default."""
        from repro.lifecycle import run_drift_scenario

        config = DriftScenarioConfig(duration=120)
        uninterrupted = run_drift_scenario(tiny_model, tmp_path / "full", config)
        checkpoint = tmp_path / "short.ckpt"
        runner = DriftScenarioRunner(tiny_model, tmp_path / "reg", config)
        runner.run_until(60, checkpoint_path=checkpoint, checkpoint_interval=60)
        del runner

        resumed = DriftScenarioRunner.resume(checkpoint)
        assert resumed.run_until() == 120
        assert resumed.config == config
        result = resumed.finish()
        assert (result.duration, result.onset_tick) == (120, 54)
        assert json.dumps(
            result.promotion_history(), sort_keys=True
        ) == json.dumps(uninterrupted.promotion_history(), sort_keys=True)
