"""The orchestrator loop: monitor -> predict -> scale, once per second.

Runs one application's workload trace through the simulation while a
policy watches for saturation and an autoscaler acts on it; reports
the paper's Table-7 quantities -- average extra provisioning relative
to the baseline deployment and the number of SLO violations -- plus
the full KPI timeline.

When the policy carries a model lifecycle manager (``policy.lifecycle``),
each tick ends by reporting that second's SLO outcome to it and
stepping it, so a plain :class:`Orchestrator` drives drift detection,
retraining and promotion.  The fleet shard runner ends its ticks alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cluster.simulation import ClusterSimulation
from repro.orchestrator.autoscaler import Autoscaler, ScalingRules
from repro.orchestrator.slo import SloPolicy, slo_violations, violated_last_tick

__all__ = ["Orchestrator", "OrchestratorResult"]


@dataclass
class OrchestratorResult:
    """Outcome of one closed-loop run."""

    policy_name: str
    duration: int
    baseline_containers: int
    extra_replicas: np.ndarray  # per-tick count of scale-out replicas
    violations: np.ndarray  # per-tick SLO violation flags
    response_time: np.ndarray
    throughput: np.ndarray
    offered: np.ndarray
    dropped: np.ndarray
    total_scale_outs: int

    @property
    def average_provisioning(self) -> float:
        """Average extra containers relative to the baseline (Table 7).

        Degenerate runs (no baseline replicas recorded, e.g. a policy
        evaluated against an empty deployment snapshot) report 0.0
        when nothing was ever scaled out and ``inf`` otherwise, instead
        of dividing by zero.
        """
        mean_extra = (
            float(np.mean(self.extra_replicas))
            if self.extra_replicas.size
            else 0.0
        )
        if self.baseline_containers <= 0:
            return 0.0 if mean_extra == 0.0 else float("inf")
        return mean_extra / self.baseline_containers

    @property
    def slo_violation_count(self) -> int:
        return int(np.sum(self.violations))

    @classmethod
    def from_kpis(
        cls,
        policy_name: str,
        kpis: dict,
        duration: int,
        baseline: int,
        extra,
        scale_outs: int,
        slo: SloPolicy | None = None,
    ) -> "OrchestratorResult":
        """The result of a run over the last ``duration`` recorded seconds.

        ``kpis`` is the application's KPI record
        (``simulation._kpis[application]``), ``extra`` the per-tick
        extra-replica counts and ``baseline`` the replica count at the
        start of the run.  A zero-tick run reports empty series.
        """
        series = {
            name: np.asarray(kpis[name][len(kpis[name]) - duration:])
            for name in ("response_time", "throughput", "offered", "dropped")
        }
        return cls(
            policy_name=policy_name,
            duration=duration,
            baseline_containers=baseline,
            extra_replicas=np.asarray(extra, dtype=np.float64),
            violations=slo_violations(
                series["response_time"], series["dropped"], series["offered"],
                slo,
            ),
            total_scale_outs=scale_outs,
            **series,
        )

    def as_row(self) -> dict:
        """Row in the shape of the paper's Table 7."""
        return {
            "algorithm": self.policy_name,
            "provisioning": f"+{100 * self.average_provisioning:.0f}%",
            "slo_violations": self.slo_violation_count,
        }


class Orchestrator:
    """Drives one closed-loop experiment.

    Parameters
    ----------
    simulation:
        A cluster with the target application (and any interfering
        tenants) already deployed.
    application:
        Name of the application being scaled and SLO-scored.
    policy:
        A saturation-detection policy (see
        :mod:`repro.orchestrator.policies`).
    rules:
        Scaling mechanics; ``None`` disables scaling (the no-scaling
        baseline).

    Ticks are scored against the paper's SLO (``slo``, a
    :class:`~repro.orchestrator.slo.SloPolicy`).
    """

    def __init__(
        self,
        simulation: ClusterSimulation,
        application: str,
        policy,
        rules: ScalingRules | None = None,
    ):
        if application not in simulation.deployments:
            raise ValueError(f"Application {application} is not deployed.")
        self.simulation = simulation
        self.application = application
        self.policy = policy
        self.rules = rules
        self.slo = SloPolicy()
        self.autoscaler = (
            Autoscaler(simulation=simulation, application=application, rules=rules)
            if rules is not None
            else None
        )

    # ------------------------------------------------------------------
    # Incremental driving: start() / tick() / finish()
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin a closed-loop run; arrivals are then fed via :meth:`tick`.

        Records the baseline replica count and resets per-run
        accounting.  Use this (with :meth:`tick` / :meth:`finish`) when
        arrivals come from a live source tick by tick; :meth:`run` is
        the batch wrapper for a complete pre-recorded trace.
        """
        self._baseline = sum(
            self.simulation.replica_counts(self.application).values()
        )
        self._extra: list[int] = []
        self._t = 0

    def tick(self, arrivals: dict[str, float]) -> None:
        """Advance the loop one second: step, predict, scale, account.

        With a lifecycle manager on the policy, the tick ends by
        reporting its SLO outcome (``outcome(t, violated)``) and then
        stepping the manager (``step(t)``).
        """
        if not hasattr(self, "_extra"):
            raise RuntimeError("Call start() before tick().")
        timed = obs.enabled()
        started = time.perf_counter() if timed else 0.0
        with obs.trace("orchestrator.tick"):
            with obs.trace("simulation.step"):
                self.simulation.step(
                    {app: float(rate) for app, rate in arrivals.items()}
                )
            if self.autoscaler is not None:
                with obs.trace("policy.saturated_services"):
                    saturated = self.policy.saturated_services(
                        self.simulation, self.application, self._t
                    )
                with obs.trace("autoscaler.act"):
                    self.autoscaler.act(saturated, self._t)
            self._extra.append(
                self.autoscaler.extra_replicas if self.autoscaler else 0
            )
            lifecycle = getattr(self.policy, "lifecycle", None)
            if lifecycle is not None:
                lifecycle.outcome(
                    self._t,
                    violated_last_tick(
                        self.simulation._kpis[self.application], self.slo
                    ),
                )
                lifecycle.step(self._t)
            self._t += 1
        if timed:
            obs.inc("orchestrator.ticks")
            obs.observe(
                "orchestrator.tick_seconds", time.perf_counter() - started
            )
            if self.autoscaler is not None:
                obs.set_gauge(
                    "orchestrator.extra_replicas", self.autoscaler.extra_replicas
                )

    def finish(self) -> OrchestratorResult:
        """Close the run and compute provisioning / SLO accounting."""
        if not hasattr(self, "_extra"):
            raise RuntimeError("Call start() before finish().")
        result = OrchestratorResult.from_kpis(
            getattr(self.policy, "name", type(self.policy).__name__),
            self.simulation._kpis[self.application],
            self._t,
            self._baseline,
            self._extra,
            self.autoscaler.total_scale_outs if self.autoscaler else 0,
            self.slo,
        )
        del self._extra, self._t, self._baseline
        return result

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> dict:
        """Snapshot the whole mid-run loop state to ``path``.

        Everything needed to resume bitwise -- simulation, policy
        streams, autoscaler, tick accounting -- is captured; see
        :mod:`repro.reliability.checkpoint` for the format and its
        compatibility caveats.  Returns the stored header.
        """
        from repro.reliability.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    @staticmethod
    def resume_from(
        path, model=None, allow_model_swap: bool = False
    ) -> "Orchestrator":
        """Reload an orchestrator checkpointed by :meth:`save_checkpoint`.

        The returned instance continues exactly where the saved one
        stopped: call :meth:`tick` with the remaining arrivals and
        :meth:`finish` as usual.

        Passing ``model`` asks to resume *serving with that model*.
        The checkpoint header stores the fingerprint of the model the
        run was saved with; resuming with a different one silently
        changes every remaining verdict, so a mismatch raises
        :class:`CheckpointError` unless ``allow_model_swap=True``
        explicitly accepts the swap.  A policy with a lifecycle manager
        never accepts one: the manager's registry owns the serving
        model, and promotions go through it.  A monitorless policy also
        refuses (``ValueError``) a model whose feature pipeline differs
        from the one it serves.
        """
        from repro.reliability.checkpoint import (
            CheckpointError,
            check_model_swap,
            load_checkpoint,
        )

        if model is None:
            return load_checkpoint(path)
        swap = check_model_swap(path, model, allow_swap=allow_model_swap)
        orchestrator = load_checkpoint(path)
        policy = orchestrator.policy
        if getattr(policy, "lifecycle", None) is not None:
            if swap:
                raise CheckpointError(
                    f"{path} serves under a lifecycle manager, whose "
                    "registry owns the serving model; refusing to swap in "
                    "another model (promote it through the registry "
                    "instead)."
                )
        elif hasattr(policy, "model"):
            policy.model = model
        return orchestrator

    def run(self, workloads: dict[str, np.ndarray]) -> OrchestratorResult:
        """Run the full trace; returns provisioning and SLO accounting.

        Thin wrapper over :meth:`start` / :meth:`tick` / :meth:`finish`.
        """
        if not workloads:
            raise ValueError(
                "run() needs at least one workload series; got an empty "
                "mapping."
            )
        lengths = {len(series) for series in workloads.values()}
        if len(lengths) != 1:
            raise ValueError("All workload series must have equal length.")
        duration = lengths.pop()
        self.start()
        for t in range(duration):
            self.tick({app: series[t] for app, series in workloads.items()})
        return self.finish()
