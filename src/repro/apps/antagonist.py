"""Antagonist (noisy-neighbour) workload models.

An antagonist is a co-located tenant built to pressure exactly one
shared node resource -- the synthetic stressors of interference
studies (stress-ng cpu hogs, STREAM-style bandwidth burners, fio disk
hammers).  It serves no useful traffic of its own; its only purpose is
to squeeze the victim's fair share so degradation is caused by the
*neighbour*, not by the victim's own load.

Each kind maps to one contention channel the cluster simulation now
models explicitly:

- ``"cpu"``: heavy per-request CPU -> the victim sees CPU *steal*
  (fair-share shortfall on ``kernel.all.cpu.steal``).
- ``"membw"``: STREAM-style DRAM traffic -> memory-bandwidth /
  LLC pressure (``membw_util`` and the ``perfevent.hwcounters.*``
  family).
- ``"disk"``: large sequential + seek-bound IO -> disk-queue
  interference (``disk.all.aveq`` and the iowait family).

Intensity 1.0 is calibrated so that :data:`ANTAGONIST_RATE` requests/s
oversubscribe the targeted resource on an M3-class node (8 cores,
400 MB/s disk, 10 GB/s DRAM budget) roughly 1.5x.
"""

from __future__ import annotations

from repro.apps.base import ApplicationModel, ServiceSpec

__all__ = [
    "ANTAGONIST_KINDS",
    "ANTAGONIST_RATE",
    "antagonist_application",
    "antagonist_name",
]

#: The canonical driving rate (requests/s) for intensity calibration.
ANTAGONIST_RATE = 100.0

ANTAGONIST_KINDS = ("cpu", "membw", "disk")


def antagonist_service(kind: str, intensity: float = 1.0) -> ServiceSpec:
    """The stressor's service spec for one contention ``kind``."""
    if intensity <= 0:
        raise ValueError("intensity must be positive.")
    if kind == "cpu":
        # 100 req/s * 0.12 core-s = 12 cores demanded on an 8-core node.
        return ServiceSpec(
            name="antagonist-cpu",
            cpu_seconds=0.12 * intensity,
            base_latency=0.002,
            mem_base_bytes=64e6,
            mem_per_connection_bytes=1e4,
            net_in_bytes=100.0,
            net_out_bytes=100.0,
            mem_bandwidth_bytes=1e4,
        )
    if kind == "membw":
        # 100 req/s * 150 MB = 15 GB/s against a 10 GB/s DRAM budget.
        return ServiceSpec(
            name="antagonist-membw",
            cpu_seconds=0.004 * intensity,
            base_latency=0.002,
            mem_base_bytes=256e6,
            mem_per_connection_bytes=1e4,
            net_in_bytes=100.0,
            net_out_bytes=100.0,
            mem_bandwidth_bytes=150e6 * intensity,
        )
    if kind == "disk":
        # 100 req/s * 6 MB = 600 MB/s against a 400 MB/s disk.
        return ServiceSpec(
            name="antagonist-disk",
            cpu_seconds=0.002 * intensity,
            base_latency=0.004,
            mem_base_bytes=128e6,
            mem_per_connection_bytes=1e4,
            disk_read_bytes=4e6 * intensity,
            disk_write_bytes=2e6 * intensity,
            serial_io_seconds=0.002 * intensity,
            net_in_bytes=100.0,
            net_out_bytes=100.0,
            mem_bandwidth_bytes=1e5,
        )
    raise ValueError(
        f"Unknown antagonist kind {kind!r}; expected one of {ANTAGONIST_KINDS}."
    )


def antagonist_name(kind: str) -> str:
    """The application name of the ``kind`` stressor."""
    return f"antagonist-{kind}"


def antagonist_application(kind: str, intensity: float = 1.0) -> ApplicationModel:
    """A single-service noisy-neighbour application."""
    application = ApplicationModel(name=antagonist_name(kind))
    application.add_service(antagonist_service(kind, intensity))
    return application
