"""The unified request-plane runtime shared by every serving facade.

One :class:`RequestLifecycle` owns the request plane — admit → route →
coalesce → dispatch → gather → reply — and does the counting, timing and
trace-context stamping on its two edges itself, over a pluggable
:class:`ExecutionBackend`:

* :class:`~repro.runtime.local.LocalBackend` — a worker-thread pool and
  micro-batcher over one in-process :class:`~repro.core.chatgraph.ChatGraph`;
* :class:`~repro.runtime.shard.ShardBackend` — consistent-hash routing,
  per-request forwarding and failover over shard worker processes.

:class:`~repro.serve.engine.ChatGraphServer` and
:class:`~repro.shard.coordinator.ShardedChatGraphServer` are thin
facades over this runtime: single-process serving is just the 1-shard
degenerate case, and both report shapes come from one snapshot builder
(:mod:`repro.runtime.snapshot`), so they cannot drift.

Construction of the admission-control primitives (``AdmissionQueue``,
``RateLimiter``, ``BreakerRegistry``, ``MicroBatcher``) is confined to
this package — the admission queue in the lifecycle, the micro-batcher
in the local backend alone (one coalescer per request path) — enforced
by ``tests/test_runtime_wiring_lint.py``.
"""

from .lifecycle import ExecutionBackend, ReplyTiming, RequestLifecycle
from .local import LocalBackend
from .migration import MigrationPlan, SessionMove, plan_migration
from .shard import ShardBackend
from .snapshot import build_metrics_snapshot, build_stats_snapshot

__all__ = [
    "ExecutionBackend",
    "LocalBackend",
    "MigrationPlan",
    "ReplyTiming",
    "RequestLifecycle",
    "SessionMove",
    "ShardBackend",
    "build_metrics_snapshot",
    "build_stats_snapshot",
    "plan_migration",
]
