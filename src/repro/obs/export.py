"""Exporters: registry snapshots and span trees to JSON / Prometheus.

Metric names use dotted paths internally (``orchestrator.tick_seconds``);
the Prometheus exposition sanitizes them to the ``repro_*`` underscore
convention (``repro_orchestrator_tick_seconds``) with standard
``_bucket{le="..."}`` / ``_sum`` / ``_count`` histogram series.

Raw span trees can hold one node per traced region per tick;
:func:`aggregate_spans` folds them into a per-name-path tree (call
count, total and self seconds) that stays readable for hour-long runs.
"""

from __future__ import annotations

import json
import re

from repro.obs.tracing import Span

__all__ = [
    "metrics_to_json",
    "metrics_to_prometheus",
    "aggregate_spans",
    "render_span_tree",
]

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_SANITIZE.sub("_", name)


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def metrics_to_json(snapshot: dict, indent: int | None = 2) -> str:
    """Registry snapshot -> JSON document."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def metrics_to_prometheus(snapshot: dict) -> str:
    """Registry snapshot -> Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_number(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_number(value)}")
    for name, hist in snapshot.get("histograms", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        running = 0
        for bound, count in zip(
            list(hist["bounds"]) + [float("inf")], hist["bucket_counts"]
        ):
            running += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_number(bound)}"}} {running}'
            )
        lines.append(f"{prom}_sum {hist['sum']!r}")
        lines.append(f"{prom}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------
def aggregate_spans(roots: list[Span]) -> list[dict]:
    """Fold raw spans into a per-name-path aggregate tree.

    Sibling spans with the same name merge into one node carrying
    ``calls``, ``total_seconds`` and ``self_seconds`` (total minus
    children); children are aggregated recursively.  Node order follows
    first appearance, so the tree reads in execution order.
    """

    def fold(spans: list[Span]) -> list[dict]:
        order: list[str] = []
        grouped: dict[str, list[Span]] = {}
        for span in spans:
            if span.name not in grouped:
                order.append(span.name)
                grouped[span.name] = []
            grouped[span.name].append(span)
        nodes = []
        for name in order:
            group = grouped[name]
            total = sum(s.duration_ns for s in group) / 1e9
            child_total = sum(
                c.duration_ns for s in group for c in s.children
            ) / 1e9
            nodes.append(
                {
                    "name": name,
                    "calls": len(group),
                    "total_seconds": total,
                    "self_seconds": max(0.0, total - child_total),
                    "children": fold(
                        [c for s in group for c in s.children]
                    ),
                }
            )
        return nodes

    return fold(list(roots))


def render_span_tree(roots: list[Span], dropped: int = 0) -> str:
    """Aggregated span tree as indented text (for terminals/logs)."""
    nodes = aggregate_spans(roots)
    if not nodes:
        return "(no spans recorded)"
    lines: list[str] = []

    def emit(node: dict, depth: int) -> None:
        lines.append(
            f"{'  ' * depth}{node['name']:<{max(1, 46 - 2 * depth)}} "
            f"calls={node['calls']:<7d} "
            f"total={node['total_seconds']:.4f}s "
            f"self={node['self_seconds']:.4f}s"
        )
        for child in node["children"]:
            emit(child, depth + 1)

    for node in nodes:
        emit(node, 0)
    if dropped:
        lines.append(f"({dropped} spans beyond the retention cap were timed "
                     "but not stored)")
    return "\n".join(lines)
