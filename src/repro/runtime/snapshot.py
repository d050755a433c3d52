"""One snapshot builder for every serving facade's report shapes.

``ChatGraphServer.stats()`` and ``ShardedChatGraphServer.stats()`` (and
their ``metrics_snapshot()``) are built here from the lifecycle's shared
registries plus the backend's domain sections, so the two facades'
report shapes *cannot* drift: the lifecycle-owned keys come from one
code path, and a backend that forgets a required section fails loudly
instead of silently shipping a different shape.
"""

from __future__ import annotations

from typing import Any

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
    snapshot = lifecycle.stats.snapshot()
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


def build_metrics_snapshot(lifecycle: Any, backend: Any) -> dict[str, Any]:
    """The observability view: stats + merged metrics registries.

    ``backend.merged_metrics(base)`` supplies the registry dump — the
    local backend sets its point-in-time gauges and snapshots its own
    registry; the shard backend merges every worker process's dump into
    the coordinator's (counters sum, histograms merge bucket-wise).
    """
    base = lifecycle.stats_snapshot()
    merged = backend.merged_metrics(base)
    return {
        "counters": {**base["counters"], **merged["counters"]},
        "gauges": merged["gauges"],
        "latency": base["latency"],
        "histograms": merged["histograms"],
        "caches": base["caches"],
        "breakers": base["breakers"],
        "trace": (lifecycle.tracer.stats()
                  if lifecycle.tracer is not None else {}),
    }
