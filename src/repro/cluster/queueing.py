"""Queueing-theory laws used by the service performance models.

The application models are operational: given per-request demands and
an offered arrival rate, utilization laws give per-resource load and a
response-time law gives latency.  We use the M/M/1 waiting-time shape
``R = S / (1 - rho)``, smoothed and capped so that deep saturation
produces bounded (timeout-limited) latencies instead of infinities,
plus Erlang-C for multi-server stations and a finite backlog model for
drop behaviour.
"""

from __future__ import annotations

import math

__all__ = [
    "utilization",
    "mm1_response_time",
    "erlang_c",
    "mmc_response_time",
    "BacklogQueue",
]


def utilization(offered: float, capacity: float) -> float:
    """Offered load over capacity; infinite capacity yields 0."""
    if capacity <= 0.0:
        return math.inf if offered > 0 else 0.0
    return offered / capacity


def mm1_response_time(
    service_time: float, rho: float, *, max_factor: float = 60.0
) -> float:
    """M/M/1 response time with a saturation cap.

    Below ``rho=1`` this is the textbook ``S / (1 - rho)``; above it
    the queue is unstable and the observed latency is bounded by
    client timeouts, so we cap the stretch factor at ``max_factor``
    (the paper's load generators drop requests at ~3 s).
    """
    if service_time < 0:
        raise ValueError("service_time must be non-negative.")
    if rho < 0:
        raise ValueError("rho must be non-negative.")
    if rho >= 1.0 - 1.0 / max_factor:
        return service_time * max_factor
    return service_time / (1.0 - rho)


def erlang_c(servers: int, offered_erlangs: float) -> float:
    """Erlang-C probability that an arrival must wait (M/M/c).

    Computed with the standard iterative recurrence to avoid factorial
    overflow.  Returns 1.0 when the system is overloaded.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1.")
    if offered_erlangs < 0:
        raise ValueError("offered_erlangs must be non-negative.")
    if offered_erlangs == 0.0:
        return 0.0
    if offered_erlangs >= servers:
        return 1.0
    # inverse of Erlang-B via recurrence, then convert to Erlang-C.
    inv_b = 1.0
    for k in range(1, servers + 1):
        inv_b = 1.0 + inv_b * k / offered_erlangs
    b = 1.0 / inv_b
    rho = offered_erlangs / servers
    c = b / (1.0 - rho + rho * b)
    return min(max(c, 0.0), 1.0)


def mmc_response_time(
    service_time: float, arrival_rate: float, servers: int, *, max_factor: float = 60.0
) -> float:
    """M/M/c mean response time with the same saturation cap as M/M/1."""
    if service_time <= 0.0:
        return 0.0
    offered = arrival_rate * service_time
    rho = offered / servers
    if rho >= 1.0 - 1.0 / max_factor:
        return service_time * max_factor
    wait_probability = erlang_c(servers, offered)
    mu = 1.0 / service_time
    waiting = wait_probability / (servers * mu - arrival_rate)
    return service_time + waiting


class BacklogQueue:
    """Discrete-time queue with finite patience (client timeouts).

    Each tick, ``offer(arrivals, capacity)`` admits work, completes up
    to ``capacity``, carries the remainder as backlog, and drops
    whatever has waited longer than ``timeout`` ticks -- producing the
    dropped-request KPI the paper uses in its SLO definition.
    """

    def __init__(self, timeout: float = 3.0):
        if timeout <= 0:
            raise ValueError("timeout must be positive.")
        self.timeout = timeout
        self.backlog = 0.0

    def offer(self, arrivals: float, capacity: float) -> tuple[float, float]:
        """Process one tick; returns (completed, dropped)."""
        if arrivals < 0 or capacity < 0:
            raise ValueError("arrivals and capacity must be non-negative.")
        total = self.backlog + arrivals
        completed = min(total, capacity)
        remaining = total - completed
        # Work that cannot complete within `timeout` ticks at current
        # capacity will time out; drop it now (fluid approximation).
        sustainable = capacity * self.timeout
        dropped = max(0.0, remaining - sustainable)
        self.backlog = remaining - dropped
        return completed, dropped

    def reset(self) -> None:
        self.backlog = 0.0
