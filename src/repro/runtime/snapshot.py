"""One snapshot builder for every serving facade's report shapes.

``ChatGraphServer.stats()`` and ``ShardedChatGraphServer.stats()`` (and
their ``metrics_snapshot()``) are built here from the lifecycle's shared
registries plus the backend's domain sections, so the two facades'
report shapes *cannot* drift: the lifecycle-owned keys come from one
code path, and a backend that forgets a required section fails loudly
instead of silently shipping a different shape.

**The fleet rule** (stated here and nowhere else).  ``stats()`` reads
this process's :class:`~repro.obs.metrics.MetricsRegistry` only:
``counters`` are its counters and ``latency`` its histograms, so on a
fleet they are the coordinator's — every admitted request resolves
exactly once there and reconciliation against a workload ledger is
exact.  ``metrics_snapshot()`` is the lossless sum of the worker
processes' registry dumps *overlaid by this process's own series*: own
wins on a name collision.  The collisions are exactly the request-edge
series a coordinator's and a worker's lifecycle both write for the same
request (``admitted``, ``failed``, ``op_*``, ``rejected_*``,
``queued``/``service``/``total``, ``breaker_opened``), and for those
the coordinator's figure is the end-to-end one.  No code names them:
the overlay is by name, whatever the names are.
"""

from __future__ import annotations

from typing import Any

from ..obs.metrics import merge_metrics_dumps

__all__ = ["REQUIRED_SECTIONS", "build_metrics_snapshot",
           "build_stats_snapshot"]

#: Sections every backend must supply — the single-process server's
#: degenerate values (empty shards map, no per-shard stores) included.
REQUIRED_SECTIONS = ("sessions", "caches", "pipeline_stages", "store",
                     "shards")


def build_stats_snapshot(lifecycle: Any,
                         sections: dict[str, Any]) -> dict[str, Any]:
    """The merged ``stats()`` snapshot: lifecycle + backend sections."""
    missing = [key for key in REQUIRED_SECTIONS if key not in sections]
    if missing:
        raise ValueError(
            f"backend stats_sections() is missing {missing}; every "
            f"backend must supply {list(REQUIRED_SECTIONS)}")
    own = lifecycle.metrics.snapshot()
    snapshot = {"counters": own["counters"], "latency": own["histograms"]}
    snapshot["queue"] = {"depth": lifecycle.queue.maxsize,
                         "size": len(lifecycle.queue)}
    snapshot["breakers"] = lifecycle.breakers.snapshot()
    snapshot["rate_limiter"] = {
        "clients": len(lifecycle.limiter)
        if lifecycle.limiter is not None else 0}
    snapshot["workers"] = lifecycle.config.workers
    for key in REQUIRED_SECTIONS:
        snapshot[key] = sections[key]
    return snapshot


def _gauges(stats: dict[str, Any]) -> dict[str, float]:
    """Point-in-time values, derived from one stats snapshot.

    A cache hit rate is the ratio of the (fleet-summed) hits and misses
    the snapshot already carries — never a sum of per-shard ratios.
    """
    gauges = {
        "queue_size": stats["queue"]["size"],
        "sessions_live": stats["sessions"]["active"],
        "workers": stats["workers"],
        "breakers_open": sum(1 for breaker in stats["breakers"].values()
                             if breaker["state"] == "open"),
    }
    for name, cache in stats["caches"].items():
        gauges[f"cache_{name}_hit_rate"] = cache.get("hit_rate", 0.0)
    return {name: float(value) for name, value in sorted(gauges.items())}


def build_metrics_snapshot(lifecycle: Any) -> dict[str, Any]:
    """The observability view: one stats snapshot, the worker dumps the
    same backend poll returned, and the gauges derived from both."""
    sections = lifecycle.backend.stats_sections()
    base = build_stats_snapshot(lifecycle, sections)
    fleet = merge_metrics_dumps(sections.get("worker_dumps", []))
    return {
        "counters": {**fleet["counters"], **base["counters"]},
        "gauges": _gauges(base),
        "latency": base["latency"],
        "histograms": {**fleet["histograms"], **base["latency"]},
        "caches": base["caches"],
        "breakers": base["breakers"],
        "trace": (lifecycle.tracer.stats()
                  if lifecycle.tracer is not None else {}),
    }
