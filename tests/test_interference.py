"""Interference & multi-tenancy: contention signals, corpora, labels.

Covers the acceptance contract of the interference-aware simulation:

- emitted ``kernel.all.cpu.steal`` is non-negative everywhere,
  positively correlated with injected neighbour contention, and ~0 on
  solo-tenant runs (even self-saturated ones);
- domain-non-negative gauges never emit negative values on any of the
  three synthesis paths (batch / streaming / fleet-batched);
- the one node arbitration routine absorbs microscopically negative
  demands from float rounding instead of raising mid-run, and stays
  bitwise-equal to a numpy reference (fair share plus pairwise sums)
  on nodes of 1 to 20 members;
- the interference corpus is bitwise identical at every ``n_jobs`` and
  its cause labels are coherent;
- the fleet telemetry path stays bitwise-equal to the per-instance
  reference with an antagonist co-located on the node.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.antagonist import (
    ANTAGONIST_KINDS,
    antagonist_application,
    antagonist_service,
)
from repro.apps.solr import solr_application
from repro.cluster.node import MACHINES, NEGATIVE_DEMAND_TOLERANCE
from repro.cluster.simulation import ClusterSimulation, Placement, _arbitrate
from repro.datasets.interference import (
    CAUSE_NEIGHBOR,
    CAUSE_NONE,
    CAUSE_SELF,
    InterferenceScenario,
    build_interference_corpus,
    generate_interference_run,
)
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.catalog import default_catalog
from tests.serving_reference import open_reference_stream

DURATION = 48
ONSET = 24


def _colocated(kind="cpu", duration=DURATION, onset=ONSET, seed=5,
               victim_rate=100.0, antagonist_rate=100.0, antagonist=True):
    """Solr victim on M3, optionally with an antagonist switching on
    mid-run.  Returns ``(result, victim_container)``."""
    simulation = ClusterSimulation({"M3": MACHINES["M3"]}, seed=seed)
    victim = solr_application()
    simulation.deploy(
        victim,
        {name: [Placement(node="M3")] for name in victim.services},
    )
    workloads = {victim.name: np.full(duration, victim_rate)}
    if antagonist:
        stressor = antagonist_application(kind)
        simulation.deploy(
            stressor,
            {name: [Placement(node="M3")] for name in stressor.services},
        )
        schedule = np.zeros(duration)
        schedule[onset:] = antagonist_rate
        workloads[stressor.name] = schedule
    result = simulation.run(workloads)
    container = next(
        c for c in result.containers if c.application == victim.name
    )
    return result, container


def _steal_column():
    return [s.name for s in default_catalog().host].index(
        "kernel.all.cpu.steal"
    )


class TestStealSignal:
    def test_nonnegative_and_correlated_with_contention(self):
        result, container = _colocated(kind="cpu")
        agent = TelemetryAgent(seed=5)
        matrix = agent.instance_matrix(container, result.nodes)
        steal = matrix[:, _steal_column()]
        assert float(steal.min()) >= 0.0
        pre, post = steal[:ONSET], steal[ONSET:]
        assert post.mean() > 50.0, "CPU antagonist should squeeze hard"
        assert pre.mean() < 0.5, "no contention before the onset"
        active = np.zeros(DURATION)
        active[ONSET:] = 1.0
        assert np.corrcoef(steal, active)[0, 1] > 0.9

    def test_solo_run_steal_is_near_zero_even_saturated(self):
        # 3000 req/s saturates Solr on M3 by its own load: steal must
        # stay ~0 because nobody else is stealing the node.
        result, container = _colocated(antagonist=False, victim_rate=3000.0)
        agent = TelemetryAgent(seed=5)
        matrix = agent.instance_matrix(container, result.nodes)
        steal = matrix[:, _steal_column()]
        assert float(steal.min()) >= 0.0
        assert float(steal.mean()) < 0.5

    def test_membw_and_disk_antagonists_move_their_channels(self):
        catalog = default_catalog()
        names = [s.name for s in catalog.host]
        i_membw = names.index("perfevent.hwcounters.llc_misses.value")
        i_aveq = names.index("disk.all.aveq")
        agent = TelemetryAgent(seed=5)
        for kind, column in (("membw", i_membw), ("disk", i_aveq)):
            result, container = _colocated(kind=kind)
            matrix = agent.instance_matrix(container, result.nodes)
            signal = matrix[:, column]
            assert signal[ONSET + 2 :].mean() > 1.5 * signal[:ONSET].mean(), (
                f"{kind} antagonist did not move {names[column]}"
            )


class TestNonnegativeGauges:
    """Regression: gauges whose domain is non-negative (steal, nice,
    guest) must never emit negative values from measurement noise."""

    def _nonneg_columns(self, catalog):
        host = [i for i, s in enumerate(catalog.host) if s.nonnegative]
        container = [
            catalog.n_host + i
            for i, s in enumerate(catalog.container)
            if s.nonnegative
        ]
        assert host, "expected non-negative host gauges in the catalog"
        return host + container

    def test_batch_path_never_negative(self):
        result, container = _colocated(antagonist=False, victim_rate=50.0)
        agent = TelemetryAgent(seed=11)
        matrix = agent.instance_matrix(container, result.nodes)
        for column in self._nonneg_columns(agent.catalog):
            assert float(matrix[:, column].min()) >= 0.0, column

    def test_streaming_path_never_negative(self):
        result, container = _colocated(antagonist=False, victim_rate=50.0)
        agent = TelemetryAgent(seed=11)
        stream = open_reference_stream(agent, container, result.nodes)
        columns = self._nonneg_columns(agent.catalog)
        for _ in range(len(container.history)):
            row = stream.emit()
            for column in columns:
                assert float(row[column]) >= 0.0, column

    def test_fleet_batched_path_never_negative(self):
        from repro.fleet.telemetry import FleetTelemetryStream

        simulation = ClusterSimulation({"M3": MACHINES["M3"]}, seed=11)
        victim = solr_application()
        simulation.deploy(
            victim,
            {name: [Placement(node="M3")] for name in victim.services},
        )
        agent = TelemetryAgent(seed=11)
        container = next(
            instance.container
            for replicas in simulation.deployments[victim.name]
            .instances.values()
            for instance in replicas
        )
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=4,
        )
        fleet.add_row(0, "ns", agent, container, simulation.nodes)
        columns = self._nonneg_columns(agent.catalog)
        for _ in range(12):
            simulation.step({victim.name: 50.0})
            fleet.begin_tick()
            fleet.advance_round()
            for column in columns:
                assert float(fleet.raw[0, column]) >= 0.0, column


def reference_arbitrate(demands, capacity):
    """The array arbitration the routine replaced: numpy fair share,
    then the idle remainder on every grant, both sums numpy's own."""
    demands = np.asarray(demands, dtype=np.float64)
    if np.any(demands < 0):
        if np.any(demands < -NEGATIVE_DEMAND_TOLERANCE):
            raise ValueError("Demands must be non-negative.")
        demands = np.maximum(demands, 0.0)
    total = demands.sum()
    if total <= capacity or total == 0.0:
        granted = demands.copy()
    else:
        granted = demands * (capacity / total)
    return granted + max(0.0, capacity - float(granted.sum()))


class TestFairShareTinyNegative:
    """Regression: microscopic negative demands (float rounding) are
    clamped, not fatal; genuinely negative demands still raise."""

    @given(
        eps=st.floats(min_value=0.0, max_value=NEGATIVE_DEMAND_TOLERANCE),
        other=st.floats(min_value=0.0, max_value=100.0),
        capacity=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_tiny_negative_is_clamped_to_zero(self, eps, other, capacity):
        usable = _arbitrate([-eps, other], capacity)
        assert all(value >= 0.0 for value in usable)
        assert usable == _arbitrate([0.0, other], capacity)

    @given(
        eps=st.floats(min_value=0.0, max_value=NEGATIVE_DEMAND_TOLERANCE),
        others=st.lists(
            st.floats(min_value=0.0, max_value=50.0).map(
                lambda value: value ** 3  # magnitudes from 0 to 1.25e5
            ),
            min_size=0,
            max_size=19,
        ),
        capacity=st.floats(min_value=0.5, max_value=5e5),
        position=st.integers(0, 19),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_routine_matches_numpy_reference(
        self, eps, others, capacity, position
    ):
        """1 to 20 members: left-to-right sums below eight members,
        numpy's pairwise reduce from eight on, bit for bit."""
        demands = list(others)
        demands.insert(position % (len(others) + 1), -eps)
        usable = _arbitrate(demands, capacity)
        assert all(value >= 0.0 for value in usable)
        expected = reference_arbitrate(demands, capacity)
        assert np.array(usable).tobytes() == expected.tobytes()

    def test_genuinely_negative_still_raises(self):
        with pytest.raises(ValueError):
            _arbitrate([-1e-3], 4.0)
        with pytest.raises(ValueError):
            _arbitrate([-1e-3, 1.0], 4.0)


class TestAntagonistSpecs:
    def test_each_kind_builds_one_service(self):
        for kind in ANTAGONIST_KINDS:
            application = antagonist_application(kind)
            assert application.name == f"antagonist-{kind}"
            assert len(application.services) == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="Unknown antagonist kind"):
            antagonist_service("network")


_SMALL_SCENARIOS = [
    InterferenceScenario(201, 2, "cpu"),
    InterferenceScenario(202, 2, None),
]


@pytest.fixture(scope="module")
def small_corpus():
    return build_interference_corpus(
        duration=40,
        calibration_duration=100,
        seed=7,
        scenarios=_SMALL_SCENARIOS,
    )


class TestInterferenceCorpus:
    def test_bitwise_deterministic_across_n_jobs(self, small_corpus):
        for n_jobs in (1, 2):
            again = build_interference_corpus(
                duration=40,
                calibration_duration=100,
                seed=7,
                scenarios=_SMALL_SCENARIOS,
                n_jobs=n_jobs,
            )
            assert np.array_equal(small_corpus.X, again.X), n_jobs
            assert np.array_equal(small_corpus.y, again.y)
            assert np.array_equal(small_corpus.cause, again.cause)
            assert np.array_equal(small_corpus.groups, again.groups)

    def test_cause_labels_are_coherent(self, small_corpus):
        interference, solo = small_corpus.runs
        # Neighbour-caused seconds only after the onset, only with an
        # antagonist present.
        assert (interference.cause == CAUSE_NEIGHBOR).any()
        neighbor_ticks = np.flatnonzero(
            interference.cause[:40] == CAUSE_NEIGHBOR
        )
        assert neighbor_ticks.min() >= interference.onset_tick
        assert not (solo.cause == CAUSE_NEIGHBOR).any()
        assert solo.y.sum() == 0, "sub-knee solo control must stay clean"
        # Degraded iff cause says so.
        for run in small_corpus.runs:
            assert np.array_equal(run.y == 0, run.cause == CAUSE_NONE)

    def test_self_overload_labels_self(self):
        run = generate_interference_run(
            InterferenceScenario(203, 2, None, victim_load=1.4),
            duration=40,
            calibration_duration=100,
            seed=7,
        )
        assert (run.cause == CAUSE_SELF).sum() > 20
        assert not (run.cause == CAUSE_NEIGHBOR).any()

    def test_groups_and_meta_align(self, small_corpus):
        assert small_corpus.X.shape[0] == small_corpus.y.size
        assert small_corpus.y.size == small_corpus.cause.size
        assert small_corpus.y.size == small_corpus.groups.size
        assert len(small_corpus.meta) == small_corpus.X.shape[1]
        assert set(np.unique(small_corpus.groups)) == {201, 202}


class TestFleetParityWithAntagonist:
    def test_fleet_rows_match_instance_matrix(self):
        """The fleet's batched synthesis stays bitwise-equal to the
        per-instance reference when an antagonist shares the node."""
        from repro.fleet.telemetry import FleetTelemetryStream

        simulation = ClusterSimulation({"M3": MACHINES["M3"]}, seed=9)
        victim = solr_application()
        simulation.deploy(
            victim,
            {name: [Placement(node="M3")] for name in victim.services},
        )
        stressor = antagonist_application("cpu")
        simulation.deploy(
            stressor,
            {name: [Placement(node="M3")] for name in stressor.services},
        )
        agent = TelemetryAgent(seed=9)
        containers = [
            instance.container
            for deployment in simulation.deployments.values()
            for replicas in deployment.instances.values()
            for instance in replicas
        ]
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=len(containers),
        )
        for row, container in enumerate(containers):
            fleet.add_row(row, "ns", agent, container, simulation.nodes)
        ticks = 20
        per_row = {row: [] for row in range(len(containers))}
        for t in range(ticks):
            simulation.step(
                {
                    victim.name: 100.0,
                    stressor.name: 100.0 if t >= 8 else 0.0,
                }
            )
            fleet.begin_tick()
            emitted = fleet.advance_round()
            for row in emitted:
                per_row[int(row)].append(fleet.raw[int(row)].copy())
        counter_cols = np.concatenate(
            [
                agent.catalog.spec_arrays(agent.catalog.host).counters,
                agent.catalog.spec_arrays(agent.catalog.container).counters,
            ]
        )
        for row, container in enumerate(containers):
            reference = agent.instance_matrix(container, simulation.nodes)
            assert len(per_row[row]) == ticks
            for k, values in enumerate(per_row[row]):
                if k == 0:
                    assert np.array_equal(
                        values[~counter_cols], reference[0][~counter_cols]
                    )
                else:
                    assert np.array_equal(values, reference[k]), (row, k)
