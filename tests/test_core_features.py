"""Tests for the feature-engineering steps (paper section 3.3)."""

import numpy as np
import pytest

from repro.core.features import interactions
from repro.core.features.binary import BinaryLevelFeatures
from repro.core.features.interactions import InteractionFeatures
from repro.core.features.meta import Domain, FeatureMeta, Scope, infer_domain
from repro.core.features.scaling import LogScaler
from repro.core.features.selection import (
    PCAReducer,
    RandomForestFilter,
    VarianceFilter,
)
from repro.core.features.temporal import TemporalFeatures, lagged, rolling_average
from repro.reliability.checkpoint import model_fingerprint


def meta_of(*specs):
    """Helper: build FeatureMeta list from (name, domain, scope, flags)."""
    out = []
    for spec in specs:
        name, domain, scope = spec[:3]
        flags = spec[3] if len(spec) > 3 else {}
        out.append(FeatureMeta(name=name, domain=domain, scope=scope, **flags))
    return out


class TestDomainInference:
    @pytest.mark.parametrize(
        "name,domain",
        [
            ("kernel.all.cpu.util", Domain.CPU),
            ("cgroup.cpusched.throttled", Domain.CPU),
            ("cgroup.memory.usage", Domain.MEMORY),
            ("mem.vmstat.pgpgin", Domain.MEMORY),
            ("network.tcp.currestab", Domain.NETWORK),
            ("hinv.ninterface", Domain.NETWORK),
            ("disk.all.aveq", Domain.DISK),
            ("vfs.inodes.free", Domain.FILESYSTEM),
            ("kernel.all.pswitch", Domain.KERNEL),
            ("something.unknown", Domain.OTHER),
        ],
    )
    def test_prefix_rules(self, name, domain):
        assert infer_domain(name) == domain

    def test_derived_renames_and_flags(self):
        base = FeatureMeta(name="x", domain=Domain.CPU)
        derived = base.derived("-AVG5", temporal=True)
        assert derived.name == "x-AVG5" and derived.temporal
        assert base.name == "x"  # immutable


class TestBinaryLevels:
    def _util_meta(self):
        return meta_of(
            ("H-CPU", Domain.CPU, Scope.HOST, {"utilization": True}),
            ("H-MEM", Domain.MEMORY, Scope.HOST, {"utilization": True}),
            ("C-CPU", Domain.CPU, Scope.CONTAINER, {"utilization": True}),
            ("C-MEM", Domain.MEMORY, Scope.CONTAINER, {"utilization": True}),
            ("other", Domain.NETWORK, Scope.HOST),
        )

    def test_sixteen_binary_features(self):
        """2 CPU x 5 levels + 2 MEM x 3 levels = 16 (section 3.3.1)."""
        X = np.random.default_rng(0).uniform(0, 100, size=(20, 5))
        transformed, meta = BinaryLevelFeatures().fit_transform(X, self._util_meta())
        binary = [m for m in meta if m.binary]
        assert len(binary) == 16
        assert transformed.shape == (20, 5 + 16)

    def test_level_boundaries(self):
        X = np.array([[30.0, 0, 0, 0, 0], [65.0, 0, 0, 0, 0],
                      [85.0, 0, 0, 0, 0], [92.0, 0, 0, 0, 0],
                      [97.0, 0, 0, 0, 0]])
        transformed, meta = BinaryLevelFeatures().fit_transform(X, self._util_meta())
        names = [m.name for m in meta]
        low = transformed[:, names.index("H-CPU-LOW")]
        high = transformed[:, names.index("H-CPU-HIGH")]
        veryhigh = transformed[:, names.index("H-CPU-VERYHIGH")]
        extreme = transformed[:, names.index("H-CPU-EXTREME")]
        assert low.tolist() == [1, 0, 0, 0, 0]
        assert high.tolist() == [0, 0, 1, 1, 1]
        assert veryhigh.tolist() == [0, 0, 0, 1, 1]
        assert extreme.tolist() == [0, 0, 0, 0, 1]

    def test_memory_has_no_veryhigh(self):
        X = np.zeros((3, 5))
        _, meta = BinaryLevelFeatures().fit_transform(X, self._util_meta())
        names = [m.name for m in meta]
        assert "H-MEM-HIGH" in names
        assert "H-MEM-VERYHIGH" not in names

    def test_no_utilization_columns_is_identity(self):
        X = np.ones((4, 1))
        meta = meta_of(("x", Domain.OTHER, Scope.HOST))
        transformed, out_meta = BinaryLevelFeatures().fit_transform(X, meta)
        assert transformed.shape == (4, 1) and len(out_meta) == 1

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError, match="fitted"):
            BinaryLevelFeatures().transform(np.zeros((2, 1)), [])


class TestLogScaler:
    def test_log_applied_to_bytes_columns_only(self):
        meta = meta_of(
            ("bytes", Domain.DISK, Scope.HOST, {"bytes_like": True}),
            ("plain", Domain.CPU, Scope.HOST),
        )
        X = np.array([[float(np.e - 1), 5.0]])
        transformed, out_meta = LogScaler().fit_transform(X, meta)
        assert np.isclose(transformed[0, 0], 1.0)  # log1p(e-1) = 1
        assert transformed[0, 1] == 5.0
        assert out_meta[0].name == "bytes-LOG" and not out_meta[0].bytes_like

    def test_negative_values_clamped(self):
        meta = meta_of(("b", Domain.DISK, Scope.HOST, {"bytes_like": True}))
        transformed, _ = LogScaler().fit_transform(np.array([[-5.0]]), meta)
        assert transformed[0, 0] == 0.0

    def test_input_not_mutated(self):
        meta = meta_of(("b", Domain.DISK, Scope.HOST, {"bytes_like": True}))
        X = np.array([[100.0]])
        LogScaler().fit_transform(X, meta)
        assert X[0, 0] == 100.0


class TestTemporal:
    def test_rolling_average_values(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(rolling_average(values, 2), [1.0, 1.5, 2.5, 3.5])

    def test_rolling_average_warmup_shortens(self):
        values = np.array([10.0, 0.0, 0.0])
        averaged = rolling_average(values, 3)
        assert averaged[0] == 10.0  # window of 1 at the start

    def test_lagged_values(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(lagged(values, 2), [1.0, 1.0, 1.0, 2.0])

    def test_lag_zero_identity(self):
        values = np.array([3.0, 1.0])
        assert np.allclose(lagged(values, 0), values)

    def test_feature_counts(self):
        meta = meta_of(("a", Domain.CPU, Scope.HOST), ("b", Domain.DISK, Scope.HOST))
        X = np.random.default_rng(0).normal(size=(30, 2))
        transformed, out_meta = TemporalFeatures(windows=(1, 5)).fit_transform(X, meta)
        # 2 original + 2 features x 2 windows x (AVG + LAG) = 10
        assert transformed.shape == (30, 10)
        names = [m.name for m in out_meta]
        assert "a-AVG1" in names and "b-LAGGED5" in names

    def test_group_boundaries_respected(self):
        meta = meta_of(("a", Domain.CPU, Scope.HOST))
        X = np.concatenate([np.zeros(5), np.full(5, 100.0)]).reshape(-1, 1)
        groups = np.array([0] * 5 + [1] * 5)
        transformed, out_meta = TemporalFeatures(windows=(3,)).fit_transform(
            X, meta, groups=groups
        )
        names = [m.name for m in out_meta]
        lag_col = transformed[:, names.index("a-LAGGED3")]
        # First sample of run 2 must see run-2's value, not run-1's zero.
        assert lag_col[5] == 100.0

    def test_temporal_features_not_re_derived(self):
        meta = [FeatureMeta(name="a-AVG1", domain=Domain.CPU, temporal=True)]
        X = np.ones((5, 1))
        transformed, _ = TemporalFeatures().fit_transform(X, meta)
        assert transformed.shape == (5, 1)  # nothing added

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TemporalFeatures(windows=(0,))


class TestInteractions:
    def test_cross_domain_products_only(self):
        meta = meta_of(
            ("cpu1", Domain.CPU, Scope.HOST),
            ("cpu2", Domain.CPU, Scope.HOST),
            ("net1", Domain.NETWORK, Scope.HOST),
        )
        X = np.array([[2.0, 3.0, 4.0]])
        transformed, out_meta = InteractionFeatures().fit_transform(X, meta)
        names = [m.name for m in out_meta]
        assert "cpu1 x net1" in names and "cpu2 x net1" in names
        assert "cpu1 x cpu2" not in names  # same domain
        product = transformed[0, names.index("cpu1 x net1")]
        assert product == 8.0

    def test_temporal_features_excluded(self):
        meta = [
            FeatureMeta(name="a", domain=Domain.CPU),
            FeatureMeta(name="b-AVG5", domain=Domain.NETWORK, temporal=True),
        ]
        X = np.ones((3, 2))
        transformed, _ = InteractionFeatures().fit_transform(X, meta)
        assert transformed.shape == (3, 2)

    def test_cap_raises_not_truncates(self):
        meta = [
            FeatureMeta(name=f"m{i}", domain=Domain.CPU if i % 2 else Domain.DISK)
            for i in range(60)
        ]
        X = np.ones((2, 60))
        with pytest.raises(ValueError, match="reduction step"):
            InteractionFeatures(max_pairs=10).fit(X, meta)

    def test_interaction_meta_flag(self):
        meta = meta_of(
            ("a", Domain.CPU, Scope.HOST), ("b", Domain.DISK, Scope.HOST)
        )
        _, out_meta = InteractionFeatures().fit_transform(np.ones((2, 2)), meta)
        assert out_meta[-1].interaction

    def test_refit_computes_its_own_pairs(self):
        """A second fit's products, not the first fit's, reach the output."""
        X = np.arange(1.0, 13.0).reshape(3, 4)
        step = InteractionFeatures()
        step.fit_transform(X[:, :3], meta_of(
            ("c", Domain.CPU, Scope.HOST),
            ("m", Domain.MEMORY, Scope.HOST),
            ("n", Domain.NETWORK, Scope.HOST),
        ))
        meta = meta_of(
            ("c1", Domain.CPU, Scope.HOST), ("c2", Domain.CPU, Scope.HOST),
            ("m1", Domain.MEMORY, Scope.HOST), ("m2", Domain.MEMORY, Scope.HOST),
        )
        refit, refit_meta = step.fit_transform(X, meta)
        fresh, _ = InteractionFeatures().fit_transform(X, meta)
        assert refit.shape == (3, 8) and len(refit_meta) == 8
        assert refit.tobytes() == fresh.tobytes()

    def test_refit_without_pairs_pickles_as_a_fresh_step(self):
        X = np.ones((2, 2))
        single_domain = meta_of(
            ("a", Domain.CPU, Scope.HOST), ("b", Domain.CPU, Scope.HOST)
        )
        step = InteractionFeatures().fit(X, meta_of(
            ("a", Domain.CPU, Scope.HOST), ("b", Domain.DISK, Scope.HOST)
        ))
        step.fit(X, single_domain)
        assert step.transform(X, single_domain)[0] is X
        assert model_fingerprint(step) == model_fingerprint(
            InteractionFeatures().fit(X, single_domain)
        )

    @pytest.mark.parametrize("block_values", [1 << 16, 20])
    def test_columns_and_row_blocks_are_bitwise_the_full_matrix(
        self, rng, monkeypatch, block_values
    ):
        monkeypatch.setattr(interactions, "_BLOCK_VALUES", block_values)
        domains = (Domain.CPU, Domain.MEMORY, Domain.NETWORK)
        meta = [FeatureMeta(f"m{i}", domains[i % 3]) for i in range(9)]
        X = rng.normal(size=(7, 9))
        step = InteractionFeatures().fit(X, meta)
        full, _ = step.transform(X, meta)
        assert full.shape == (7, 9 + 27) and full.flags.c_contiguous
        left, right = np.asarray(step.pairs_).T
        reference = np.hstack([X, X[:, left] * X[:, right]])
        assert full.tobytes() == reference.tobytes()
        for keep in (
            np.arange(full.shape[1]), np.array([0, 4, 8]),
            np.array([9, 20, 35]), np.array([2, 11, 12, 30]),
            np.array([], dtype=np.int64),
        ):
            got = step.columns(X, keep)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(full[:, keep]).tobytes()
        rows = np.array([False, True, True, False, True, False, True])
        assert step.transform(X[rows], meta)[0].tobytes() == full[rows].tobytes()

    def test_columns_checks_the_input_width(self):
        meta = meta_of(("a", Domain.CPU, Scope.HOST), ("b", Domain.DISK, Scope.HOST))
        step = InteractionFeatures().fit(np.ones((2, 2)), meta)
        with pytest.raises(ValueError, match="fitted with 2"):
            step.columns(np.ones((2, 3)), np.array([2]))


class TestSelection:
    def test_rf_filter_keeps_informative_feature(self, rng):
        X = rng.normal(size=(300, 20))
        y = (X[:, 7] > 0).astype(int)
        meta = [FeatureMeta(name=f"m{i}") for i in range(20)]
        filtered, out_meta = RandomForestFilter(
            top_k=3, per_group=False, n_estimators=15, random_state=0
        ).fit_transform(X, meta, y)
        assert "m7" in [m.name for m in out_meta]

    def test_rf_filter_union_over_groups(self, rng):
        """Per-run filtering keeps the union of each run's top features."""
        X = rng.normal(size=(400, 10))
        groups = np.array([0] * 200 + [1] * 200)
        y = np.concatenate(
            [(X[:200, 1] > 0).astype(int), (X[200:, 8] > 0).astype(int)]
        )
        meta = [FeatureMeta(name=f"m{i}") for i in range(10)]
        _, out_meta = RandomForestFilter(
            top_k=2, per_group=True, n_estimators=15, random_state=0
        ).fit_transform(X, meta, y, groups)
        names = [m.name for m in out_meta]
        assert "m1" in names and "m8" in names

    def test_rf_filter_from_row_blocks_matches_fit(self, rng):
        """``fit_blocks`` ranks the same rows ``fit`` does and builds
        only the runs it ranks (both classes present)."""
        X = rng.normal(size=(300, 12))
        groups = np.repeat([0, 1, 2], 100)
        y = (X[:, 3] > 0).astype(int)
        y[groups == 2] = 0
        meta = [FeatureMeta(name=f"m{i}") for i in range(12)]
        direct = RandomForestFilter(top_k=3, n_estimators=8).fit(X, meta, y, groups)
        built = []

        def block(rows):
            built.append(rows)
            return X[rows]

        from_blocks = RandomForestFilter(top_k=3, n_estimators=8).fit_blocks(
            block, meta, y, groups
        )
        assert np.array_equal(from_blocks.selected_, direct.selected_)
        assert from_blocks.n_features_in_ == 12 and len(built) == 2

    def test_rf_filter_requires_labels(self):
        with pytest.raises(ValueError, match="supervised"):
            RandomForestFilter().fit(np.zeros((4, 2)), [FeatureMeta("a")] * 2, None)

    def test_pca_reducer_latent_meta(self, rng):
        X = rng.normal(size=(50, 8))
        meta = [FeatureMeta(name=f"m{i}") for i in range(8)]
        reduced, out_meta = PCAReducer(n_components=3).fit_transform(X, meta)
        assert reduced.shape[1] == 3
        assert all(m.domain == Domain.LATENT for m in out_meta)

    def test_pca_reducer_max_components_cap(self, rng):
        X = rng.normal(size=(50, 30))
        meta = [FeatureMeta(name=f"m{i}") for i in range(30)]
        reduced, _ = PCAReducer(n_components=0.9999, max_components=5).fit_transform(
            X, meta
        )
        assert reduced.shape[1] <= 5

    def test_variance_filter_drops_constants(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        meta = [FeatureMeta(name="const"), FeatureMeta(name="varies")]
        filtered, out_meta = VarianceFilter().fit_transform(X, meta)
        assert [m.name for m in out_meta] == ["varies"]
        assert filtered.shape == (10, 1)

    def test_variance_filter_all_constant_raises(self):
        X = np.ones((5, 2))
        meta = [FeatureMeta(name="a"), FeatureMeta(name="b")]
        with pytest.raises(ValueError, match="zero variance"):
            VarianceFilter().fit(X, meta)
