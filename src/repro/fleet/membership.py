"""Fleet membership: namespace/pod/container -> deployment rollup keys
mapped onto matrix rows.

The fleet path stores the whole fleet's telemetry and feature state in
struct-of-arrays matrices with one row per live container.  Membership
is modeled on the Kubernetes metric schema used by agents such as
nops-k8s-agent: every sample is keyed by ``(namespace, pod,
container)`` and rolled up to a ``deployment`` for scaling decisions.
In the reproduction a *namespace* is one application cell (its own
:class:`~repro.cluster.simulation.ClusterSimulation`), a *pod* is the
simulator's container name (``teastore.auth.3``), the *container* and
*deployment* are the service -- replicas of a service roll up to the
same deployment key, and a service is saturated when any replica flags.

Scale-out/scale-in becomes row insertion/retirement: retiring a pod
frees its row for reuse (smallest free slot first, so row assignment
is deterministic for a deterministic event order), and adding a pod
beyond capacity doubles the matrices via the owner's ``grow`` hooks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["FleetMember", "FleetIndex"]


@dataclass(frozen=True)
class FleetMember:
    """One live container's rollup identity.

    ``namespace`` is the cell, ``pod`` the unique simulator container
    name, ``container`` the service-level container name and
    ``deployment`` the scaling rollup target (both equal the service
    for single-container pods, as in the teastore application).
    """

    namespace: str
    pod: str
    container: str
    deployment: str

    @property
    def rollup_key(self) -> tuple[str, str]:
        """The ``(namespace, deployment)`` key scaling decisions use."""
        return (self.namespace, self.deployment)


class FleetIndex:
    """Bidirectional ``(namespace, pod)`` <-> matrix-row mapping."""

    def __init__(self):
        self._members: list[FleetMember | None] = []
        self._rows: dict[tuple[str, str], int] = {}
        self._free: list[int] = []  # min-heap of retired rows

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._rows

    @property
    def capacity(self) -> int:
        """Highest row index ever assigned, plus one."""
        return len(self._members)

    def add(self, member: FleetMember) -> int:
        """Assign ``member`` the smallest available row and return it."""
        key = (member.namespace, member.pod)
        if key in self._rows:
            raise ValueError(f"Member {key} is already registered.")
        if self._free:
            row = heapq.heappop(self._free)
            self._members[row] = member
        else:
            row = len(self._members)
            self._members.append(member)
        self._rows[key] = row
        return row

    def retire(self, namespace: str, pod: str) -> int:
        """Release the member's row for reuse and return it."""
        row = self._rows.pop((namespace, pod))
        member = self._members[row]
        self._members[row] = None
        heapq.heappush(self._free, row)
        assert member is not None
        return row

    def row_of(self, namespace: str, pod: str) -> int:
        return self._rows[(namespace, pod)]

    def member_at(self, row: int) -> FleetMember:
        member = self._members[row]
        if member is None:
            raise KeyError(f"Row {row} is not occupied.")
        return member

    def live_rows(self) -> list[int]:
        """Occupied rows in ascending order."""
        return sorted(self._rows.values())
