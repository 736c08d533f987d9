"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.queueing import BacklogQueue, erlang_c, mm1_response_time
from repro.cluster.simulation import _arbitrate
from repro.core.evaluation import lagged_confusion
from repro.core.features.temporal import lagged, rolling_average
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.telemetry.rates import counters_to_rates

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def binary_series(max_length=60):
    return st.lists(st.integers(0, 1), min_size=1, max_size=max_length)


class TestLaggedConfusionProperties:
    @given(binary_series(), st.integers(0, 5))
    def test_counts_partition_samples(self, y, k):
        y_true = np.array(y)
        y_pred = np.roll(y_true, 1) if len(y) > 1 else y_true
        confusion = lagged_confusion(y_true, y_pred, k)
        total = confusion.tp + confusion.tn + confusion.fp + confusion.fn
        assert total == len(y)

    @given(binary_series())
    def test_perfect_prediction_is_perfect(self, y):
        confusion = lagged_confusion(y, y, k=2)
        assert confusion.fp == 0 and confusion.fn == 0

    @given(binary_series(), st.integers(0, 4))
    def test_f1_monotone_in_k(self, y, k):
        y_true = np.array(y)
        y_pred = 1 - y_true  # adversarial prediction
        low = lagged_confusion(y_true, y_pred, k).f1
        high = lagged_confusion(y_true, y_pred, k + 1).f1
        assert high >= low - 1e-12

    @given(binary_series())
    def test_scores_bounded(self, y):
        rng = np.random.default_rng(0)
        y_pred = rng.integers(0, 2, size=len(y))
        confusion = lagged_confusion(y, y_pred, k=2)
        assert 0.0 <= confusion.f1 <= 1.0
        assert 0.0 <= confusion.accuracy <= 1.0


class TestScalerProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 5)),
            elements=finite_floats,
        )
    )
    def test_minmax_output_in_unit_box(self, X):
        scaled = MinMaxScaler().fit_transform(X)
        assert np.all(scaled >= -1e-9) and np.all(scaled <= 1.0 + 1e-9)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(3, 30), st.integers(1, 4)),
            elements=st.floats(-1e4, 1e4, allow_nan=False),
        )
    )
    def test_standard_scaler_roundtrip(self, X):
        scaler = StandardScaler().fit(X)
        reconstructed = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(reconstructed, X, atol=1e-6)


class TestTemporalProperties:
    @given(
        arrays(np.float64, st.integers(1, 50), elements=st.floats(0, 1e6,
               allow_nan=False)),
        st.integers(1, 10),
    )
    def test_rolling_average_bounded_by_extremes(self, values, window):
        averaged = rolling_average(values, window)
        assert np.all(averaged >= values.min() - 1e-9)
        assert np.all(averaged <= values.max() + 1e-9)

    @given(
        arrays(np.float64, st.integers(1, 50), elements=finite_floats),
        st.integers(0, 10),
    )
    def test_lagged_preserves_value_set(self, values, lag):
        shifted = lagged(values, lag)
        assert set(np.unique(shifted)) <= set(np.unique(values))

    @given(arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    def test_window_one_is_identity(self, values):
        assert np.allclose(rolling_average(values, 1), values)


class TestFairShareProperties:
    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=10),
        st.floats(0.1, 1e6, allow_nan=False),
    )
    def test_shares_never_exceed_capacity_when_contended(self, demands, capacity):
        usable = np.array(_arbitrate(demands, capacity))
        demands = np.array(demands)
        if demands.sum() > capacity:
            assert usable.sum() <= capacity * (1 + 1e-9)
            assert np.all(usable <= demands + capacity * 1e-9)
        else:
            # Work-conserving: the idle remainder goes on every grant
            # (the tolerance covers numpy's sum rounding the other way
            # at the capacity boundary).
            assert np.all(usable >= demands - capacity * 1e-9)
            assert np.all(usable <= capacity * (1 + 1e-9))

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=8),
        st.floats(1.0, 50.0),
    )
    def test_shares_preserve_demand_order(self, demands, capacity):
        shares = np.array(_arbitrate(demands, capacity))
        order = np.argsort(demands)
        assert np.all(np.diff(shares[order]) >= -1e-9)


class TestQueueProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 1e4, allow_nan=False),
                      st.floats(0, 1e4, allow_nan=False)),
            min_size=1,
            max_size=30,
        )
    )
    def test_conservation(self, steps):
        """Arrivals = completions + drops + backlog, at every point."""
        queue = BacklogQueue(timeout=3.0)
        arrived = completed = dropped = 0.0
        for arrivals, capacity in steps:
            done, lost = queue.offer(arrivals, capacity)
            arrived += arrivals
            completed += done
            dropped += lost
            assert abs(arrived - completed - dropped - queue.backlog) < 1e-6 * (
                1 + arrived
            )

    @given(st.floats(0, 0.99), st.floats(1e-6, 10.0))
    def test_mm1_at_least_service_time(self, rho, service_time):
        assert mm1_response_time(service_time, rho) >= service_time - 1e-12

    @given(st.integers(1, 20), st.floats(0, 100.0))
    @settings(max_examples=50)
    def test_erlang_c_is_probability(self, servers, offered):
        assert 0.0 <= erlang_c(servers, offered) <= 1.0


class TestRateProperties:
    @given(
        arrays(np.float64, st.tuples(st.integers(2, 40), st.integers(1, 4)),
               elements=st.floats(0, 1e6, allow_nan=False))
    )
    def test_rates_of_cumsum_recover_increments(self, increments):
        counters = np.cumsum(increments, axis=0)
        mask = np.ones(increments.shape[1], dtype=bool)
        rates = counters_to_rates(counters, mask)
        # Differencing a cumsum loses ~eps * max(|counter|) to rounding
        # (mixing 1e-4 and 1e6 increments makes this exceed a bare
        # 1e-9), so the absolute tolerance must scale with the counter
        # magnitude the subtraction actually operated on.
        atol = 1e-9 + 100 * np.finfo(np.float64).eps * float(
            np.max(np.abs(counters), initial=0.0)
        )
        assert np.allclose(rates[1:], increments[1:], rtol=1e-9, atol=atol)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 3)),
               elements=finite_floats)
    )
    def test_rates_never_negative_for_counters(self, values):
        mask = np.ones(values.shape[1], dtype=bool)
        rates = counters_to_rates(values, mask)
        assert np.all(rates >= 0.0)
