"""Tests for the :mod:`repro.parallel` execution layer.

The load-bearing property is the determinism contract: for a fixed
``random_state``, forest predictions, grid-search selections and the
training corpus must be **bitwise identical** across ``n_jobs`` values.
``REPRO_TEST_JOBS`` selects the worker count exercised against serial
(default 2; CI runs a dedicated 2-worker smoke job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.parallel import (
    WorkerCrashError,
    parallel_map,
    resolve_n_jobs,
    spawn_seeds,
)
from repro.parallel.jobs import available_cores

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


# ---------------------------------------------------------------------------
# Task functions must be module-level (they are pickled by name).
# ---------------------------------------------------------------------------
def _scaled_sum_task(item, arrays):
    return float(arrays["X"].sum()) * item


def _draw_task(item, arrays):
    (seed,) = item
    return float(np.random.default_rng(seed).normal())


def _boom_task(item, arrays):
    raise ValueError(f"boom on {item}")


def _exit_task(item, arrays):
    os._exit(3)


def _exit_in_worker_task(item, arrays):
    # Dies only inside a pool worker; the serial-rescue re-run in the
    # parent computes the real result.
    from repro.parallel import in_worker

    if in_worker():
        os._exit(3)
    return float(arrays["X"].sum()) * item


def _write_task(item, arrays):
    arrays["X"][0] = item


def _nested_task(item, arrays):
    # A parallel_map issued from inside a worker must degrade to serial
    # instead of forking a pool-within-a-pool.
    return parallel_map(_scaled_sum_task, [item, item + 1], n_jobs=2,
                        shared={"X": np.ones((2, 2))})


class TestResolveNJobs:
    def test_none_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_positive_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4

    def test_minus_one_is_all_cores(self):
        assert resolve_n_jobs(-1) == available_cores()

    def test_other_negatives_leave_cores_free(self):
        assert resolve_n_jobs(-2) == max(1, available_cores() - 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(0)

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_non_int_rejected(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(bad)


class TestSpawnSeeds:
    def test_deterministic_for_int_state(self):
        a = spawn_seeds(7, 4)
        b = spawn_seeds(7, 4)
        assert len(a) == 4
        for left, right in zip(a, b):
            assert left.entropy == right.entropy
            assert left.spawn_key == right.spawn_key

    def test_prefix_stable_in_count(self):
        # The first k children must not depend on how many are spawned.
        short = spawn_seeds(3, 2)
        long = spawn_seeds(3, 6)
        for left, right in zip(short, long):
            assert left.spawn_key == right.spawn_key

    def test_generator_consumes_one_draw(self):
        consumed = np.random.default_rng(11)
        spawn_seeds(consumed, 5)
        reference = np.random.default_rng(11)
        reference.integers(0, 2**63 - 1)
        # After spawning, both generators continue from the same state.
        assert consumed.integers(0, 1000) == reference.integers(0, 1000)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            spawn_seeds(0, -1)


class TestParallelMap:
    def test_results_in_item_order(self):
        shared = {"X": np.ones((3, 2))}
        items = list(range(10))
        expected = [6.0 * item for item in items]
        assert parallel_map(
            _scaled_sum_task, items, n_jobs=1, shared=shared
        ) == expected
        assert parallel_map(
            _scaled_sum_task, items, n_jobs=JOBS, shared=shared
        ) == expected

    def test_chunking_does_not_change_results(self):
        shared = {"X": np.arange(6.0).reshape(2, 3)}
        items = list(range(7))
        baseline = parallel_map(_scaled_sum_task, items, n_jobs=1,
                                shared=shared)
        for chunk_size in (1, 2, 5):
            assert parallel_map(
                _scaled_sum_task, items, n_jobs=JOBS, shared=shared,
                chunk_size=chunk_size,
            ) == baseline

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [-1, 0, 2.0, True, "2"])
    def test_bad_chunk_size_rejected_before_any_work(self, n_jobs, chunk_size):
        # A negative size used to drop every item at n_jobs > 1 and
        # 0 raised range()'s bare error; both now fail up front.
        read = []
        items = (read.append(item) or item for item in range(5))
        with pytest.raises(ValueError, match="chunk_size"):
            parallel_map(
                _scaled_sum_task, items, n_jobs=n_jobs,
                shared={"X": np.ones((2, 2))}, chunk_size=chunk_size,
            )
        assert read == []

    def test_empty_items(self):
        assert parallel_map(_scaled_sum_task, [], n_jobs=JOBS) == []

    def test_seeded_tasks_match_serial(self):
        tasks = [(seed,) for seed in spawn_seeds(42, 8)]
        assert parallel_map(_draw_task, tasks, n_jobs=JOBS) == parallel_map(
            _draw_task, tasks, n_jobs=1
        )

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom_task, [1, 2, 3], n_jobs=JOBS)

    def test_worker_death_raises_instead_of_hanging(self):
        with pytest.raises(WorkerCrashError, match="died"):
            parallel_map(_exit_task, [1, 2, 3], n_jobs=JOBS)

    def test_crashed_chunks_rescued_serially(self):
        """``on_crash="serial"`` re-runs every chunk lost to a worker
        death in the parent process instead of raising."""
        shared = {"X": np.ones((3, 2))}
        items = list(range(6))
        results = parallel_map(
            _exit_in_worker_task, items, n_jobs=JOBS, shared=shared,
            on_crash="serial",
        )
        assert results == [6.0 * item for item in items]

    def test_on_crash_serial_still_propagates_task_errors(self):
        # The rescue covers worker *deaths*; an exception the task
        # itself raises is a bug and must propagate either way.
        with pytest.raises(ValueError, match="boom"):
            parallel_map(
                _boom_task, [1, 2, 3], n_jobs=JOBS, on_crash="serial"
            )

    def test_invalid_on_crash_rejected(self):
        with pytest.raises(ValueError, match="on_crash"):
            parallel_map(_scaled_sum_task, [1], n_jobs=1, on_crash="retry")

    def test_shared_arrays_are_read_only_in_workers(self):
        with pytest.raises(ValueError, match="read-only"):
            parallel_map(
                _write_task, [1, 2], n_jobs=JOBS,
                shared={"X": np.zeros(4)},
            )

    def test_nested_call_degrades_to_serial(self):
        results = parallel_map(_nested_task, [1, 2], n_jobs=JOBS)
        assert results == [[4.0, 8.0], [8.0, 12.0]]


class TestForestAcrossJobs:
    def test_fit_and_predict_bitwise_equal(self, binary_data):
        from repro.ml.forest import RandomForestClassifier

        X_train, y_train, X_test, _ = binary_data
        serial = RandomForestClassifier(
            n_estimators=12, random_state=42, n_jobs=1
        ).fit(X_train, y_train)
        workers = RandomForestClassifier(
            n_estimators=12, random_state=42, n_jobs=JOBS
        ).fit(X_train, y_train)
        assert np.array_equal(
            serial.predict_proba(X_test), workers.predict_proba(X_test)
        )
        assert np.array_equal(
            serial.feature_importances_, workers.feature_importances_
        )

    def test_mixed_jobs_between_fit_and_predict(self, binary_data):
        from repro.ml.forest import RandomForestClassifier

        X_train, y_train, X_test, _ = binary_data
        forest = RandomForestClassifier(
            n_estimators=10, random_state=0, n_jobs=1
        ).fit(X_train, y_train)
        serial_proba = forest.predict_proba(X_test)
        forest.n_jobs = JOBS
        assert np.array_equal(serial_proba, forest.predict_proba(X_test))

    def test_subsample_weighting_bitwise_equal(self, binary_data):
        from repro.ml.forest import RandomForestClassifier

        X_train, y_train, X_test, _ = binary_data
        probas = [
            RandomForestClassifier(
                n_estimators=6, class_weight="subsample", random_state=5,
                n_jobs=jobs,
            ).fit(X_train, y_train).predict_proba(X_test)
            for jobs in (1, JOBS)
        ]
        assert np.array_equal(probas[0], probas[1])

    def test_proba_matches_per_tree_reference(self, binary_data):
        # The vectorized vote accumulation must agree with the naive
        # per-tree predict_proba average it replaced.
        from repro.ml.forest import RandomForestClassifier

        X_train, y_train, X_test, _ = binary_data
        forest = RandomForestClassifier(n_estimators=8, random_state=1).fit(
            X_train, y_train
        )
        reference = np.zeros((len(X_test), 2))
        for tree in forest.estimators_:
            reference[:, tree.classes_] += tree.predict_proba(X_test)
        reference /= len(forest.estimators_)
        assert np.allclose(forest.predict_proba(X_test), reference)


class TestModelSelectionAcrossJobs:
    def test_cross_val_score_bitwise_equal(self, binary_data):
        from repro.ml.forest import RandomForestClassifier
        from repro.ml.model_selection import cross_val_score

        X_train, y_train, _, _ = binary_data
        estimator = RandomForestClassifier(n_estimators=5, random_state=0)
        serial = cross_val_score(estimator, X_train, y_train, n_jobs=1)
        workers = cross_val_score(estimator, X_train, y_train, n_jobs=JOBS)
        assert np.array_equal(serial, workers)

    def test_grid_search_selects_identically(self, binary_data):
        from repro.ml.forest import RandomForestClassifier
        from repro.ml.model_selection import GridSearchCV, KFold

        X_train, y_train, X_test, _ = binary_data
        grid = {"max_depth": [3, 6], "criterion": ["gini", "entropy"]}
        searches = [
            GridSearchCV(
                RandomForestClassifier(n_estimators=4, random_state=0),
                grid,
                cv=KFold(n_splits=3),
                scoring="f1",
                n_jobs=jobs,
            ).fit(X_train, y_train)
            for jobs in (1, JOBS)
        ]
        serial, workers = searches
        assert serial.best_params_ == workers.best_params_
        assert serial.best_score_ == workers.best_score_
        for left, right in zip(serial.results_, workers.results_):
            assert left["params"] == right["params"]
            assert np.array_equal(left["scores"], right["scores"])
        assert np.array_equal(
            serial.predict(X_test), workers.predict(X_test)
        )


class TestCorpusAcrossJobs:
    def test_corpus_bitwise_equal(self):
        from repro.datasets.configs import run_by_id
        from repro.datasets.generate import build_training_corpus

        # Runs 5 and 20 form one interference session; run 1 its own.
        runs = [run_by_id(i) for i in (1, 5, 20)]
        corpora = [
            build_training_corpus(
                duration=40, calibration_duration=60, seed=3, runs=runs,
                n_jobs=jobs,
            )
            for jobs in (1, JOBS)
        ]
        serial, workers = corpora
        assert np.array_equal(serial.X, workers.X)
        assert np.array_equal(serial.y, workers.y)
        assert np.array_equal(serial.groups, workers.groups)
        for left, right in zip(serial.runs, workers.runs):
            assert left.config.run_id == right.config.run_id
            assert left.threshold == right.threshold
            assert left.observed_bottleneck == right.observed_bottleneck


class TestCalibrationCache:
    def test_shared_configuration_hits_cache(self):
        from repro.datasets.configs import run_by_id
        from repro.datasets.generate import (
            calibrate_threshold,
            calibration_cache_info,
            clear_calibration_cache,
        )

        clear_calibration_cache()
        # Table-1 runs 3 and 4 are the same app/limit combination under
        # different run ids: one simulated ramp must serve both.
        first = calibrate_threshold(run_by_id(3), duration=60, seed=0)
        assert calibration_cache_info() == {
            "hits": 0, "misses": 1, "size": 1,
        }
        calibrate_threshold(run_by_id(4), duration=60, seed=0)
        assert calibration_cache_info()["hits"] == 1
        assert calibration_cache_info()["size"] == 1

        # A cache hit must reproduce the miss bitwise (noise is applied
        # after the cache, keyed by run id).
        repeat = calibrate_threshold(run_by_id(3), duration=60, seed=0)
        assert repeat[0] == first[0]
        assert np.array_equal(repeat[2], first[2])

    def test_cached_ramp_is_immutable(self):
        from repro.datasets.configs import run_by_id
        from repro.datasets.generate import calibrate_threshold

        _, ramp, _ = calibrate_threshold(run_by_id(3), duration=60, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            ramp[0] = -1.0

    def test_key_distinguishes_different_limits(self):
        from repro.datasets.configs import run_by_id
        from repro.datasets.generate import (
            calibration_cache_info,
            calibrate_threshold,
            clear_calibration_cache,
        )

        clear_calibration_cache()
        calibrate_threshold(run_by_id(24), duration=60, seed=0)
        calibrate_threshold(run_by_id(25), duration=60, seed=0)
        # Same service/limits but different traffic ranges: two entries.
        assert calibration_cache_info() == {
            "hits": 0, "misses": 2, "size": 2,
        }
