"""The request lifecycle: one admission-to-reply path for every server.

``RequestLifecycle`` is the single request plane both serving facades
run on.  It owns admission control (the bounded queue, the per-client
rate limiter), id allocation, the stats/metrics/tracing/breaker
registries, and the two edges every request crosses — ``submit`` (admit
or reject) and ``reply`` (resolve the caller's handle, exactly once) —
with the bookkeeping on those edges expressed as middleware, mirroring
the StageGraph middleware onion on the execution plane.

Everything between the edges — *how* a request is routed, coalesced,
dispatched and gathered — belongs to the pluggable
:class:`ExecutionBackend` (a worker-thread pool in
:class:`~repro.runtime.local.LocalBackend`, a scatter/gather process
fleet in :class:`~repro.runtime.shard.ShardBackend`).

This module is the only place the admission-control primitives are
constructed (``tests/test_runtime_wiring_lint.py`` enforces it);
backends obtain extra queues and coalescers through the
:meth:`RequestLifecycle.make_queue` / :meth:`RequestLifecycle.make_batcher`
factories.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..config import ServeConfig
from ..errors import ChatGraphError, ServeError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..serve.admission import AdmissionQueue, RateLimiter
from ..serve.breaker import BreakerRegistry
from ..serve.engine import PendingRequest, ServeRequest, ServeResponse
from ..serve.microbatch import MicroBatcher
from ..serve.stats import ServerStats

__all__ = [
    "ExecutionBackend",
    "LifecycleMiddleware",
    "ReplyTiming",
    "RequestLifecycle",
    "StatsMiddleware",
    "TracingContextMiddleware",
]


@dataclass(frozen=True)
class ReplyTiming:
    """What the reply edge should record for one resolving request.

    ``None`` fields are simply not recorded — a failure that never
    reached a backend (no live shard) counts against ``failed`` and its
    op counter but contributes nothing to the latency histograms.  A
    reply carrying ``timing=None`` resolves the caller silently (the
    shutdown drain of never-routed requests).
    """

    #: Seconds spent queued before dispatch (``queued`` histogram).
    queued: float | None = None
    #: Seconds of service (``service`` histogram; with ``queued`` also
    #: feeds the ``total`` histogram).
    service: float | None = None
    #: The request resolved off a coalesced batch (``microbatched``).
    batched: bool = False


class LifecycleMiddleware:
    """Hooks on the lifecycle's admission and reply edges.

    Same shape as the stage-graph middleware: subclasses override only
    what they observe, and the lifecycle calls every installed
    middleware in order on each edge.
    """

    def on_submit(self, pending: PendingRequest) -> None:
        """Before enqueueing: the request exists but is not admitted."""

    def on_reject(self, request: ServeRequest, reason: str) -> None:
        """Admission control rejected (``rate_limit`` / ``backpressure``)."""

    def on_admitted(self, pending: PendingRequest) -> None:
        """After the queue accepted the request."""

    def on_reply(self, pending: PendingRequest, response: ServeResponse,
                 timing: ReplyTiming | None) -> None:
        """At resolution, before the caller's handle is released."""


class StatsMiddleware(LifecycleMiddleware):
    """Counters and latency histograms for both lifecycle edges.

    The one place the admitted/rejected/failed/op counters and the
    queued/service/total histograms are written, so the two serving
    facades cannot diverge in what they count.
    """

    def __init__(self, stats: ServerStats) -> None:
        self.stats = stats

    def on_reject(self, request: ServeRequest, reason: str) -> None:
        self.stats.incr(f"rejected_{reason}")

    def on_admitted(self, pending: PendingRequest) -> None:
        self.stats.incr("admitted")

    def on_reply(self, pending: PendingRequest, response: ServeResponse,
                 timing: ReplyTiming | None) -> None:
        if timing is None:
            return
        if not response.ok:
            self.stats.incr("failed")
        if timing.queued is not None:
            self.stats.observe("queued", timing.queued)
        if timing.service is not None:
            self.stats.observe("service", timing.service)
        if timing.queued is not None and timing.service is not None:
            self.stats.observe("total", timing.queued + timing.service)
        self.stats.incr(f"op_{pending.request.op}")
        if timing.batched:
            self.stats.incr("microbatched")


class TracingContextMiddleware(LifecycleMiddleware):
    """Trace-context propagation across the submission boundary.

    Stamps the submitting thread's active span as the request's parent
    (unless the caller provided one explicitly — the cross-process
    handoff a shard worker performs with the coordinator-side span id).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def on_submit(self, pending: PendingRequest) -> None:
        if pending.parent_span_id is None:
            pending.parent_span_id = self.tracer.current_id()


class ExecutionBackend:
    """What a backend must provide to run under the lifecycle.

    The lifecycle handles admission and reply; the backend owns the
    middle of the pipeline — route, coalesce, dispatch, gather — and
    the domain sections of the stats snapshot.  Subclasses override the
    hooks they need; the defaults are the no-op degenerate case.
    """

    lifecycle: "RequestLifecycle"

    def bind(self, lifecycle: "RequestLifecycle") -> None:
        """Late construction against the lifecycle's shared registries."""
        self.lifecycle = lifecycle

    def check(self, request: ServeRequest) -> None:
        """Veto a request before admission (e.g. unshardable ops)."""

    def prepare(self, pending: PendingRequest) -> None:
        """Stamp backend-private state before the request enqueues."""

    def boot(self) -> None:
        """Heavy start-up work (spawn processes, install listeners)."""

    def launch(self) -> None:
        """Start consumer threads; the admission queue is open."""

    def shutdown(self, drain: bool, deadline: float) -> None:
        """Stop consumers; the queue is closed (and drained if asked)."""

    def finalize(self, deadline: float) -> None:
        """Tear down listeners/threads; the lifecycle reports stopped."""

    def stats_sections(self) -> dict[str, Any]:
        """The backend-owned sections of the stats snapshot (see
        :func:`repro.runtime.snapshot.build_stats_snapshot`)."""
        return {"sessions": {}, "caches": {}, "pipeline_stages": [],
                "store": {}, "shards": {"count": 0, "alive": 0,
                                        "per_shard": {}}}

    def merged_metrics(self, base: dict[str, Any]) -> dict[str, Any]:
        """The merged metrics-registry view feeding ``metrics_snapshot``."""
        return self.lifecycle.metrics.snapshot()


class RequestLifecycle:
    """One request plane: admission, id allocation, reply, snapshots.

    The lifecycle is deliberately backend-blind: ``submit`` ends with
    the request parked on the admission queue, and the backend's
    consumers carry it to exactly one :meth:`reply`.  Stats, tracing
    and breaker state live here so every backend shares one set of
    registries (and one snapshot shape).
    """

    def __init__(self, config: ServeConfig, backend: ExecutionBackend,
                 clock: Callable[[], float] | None = None) -> None:
        self.config = config
        #: Monotonic clock governing session TTLs, rate-limit refills,
        #: admission retry hints, and breaker cooldowns.  ``None`` means
        #: real time; soak tests inject a
        #: :class:`repro.loadgen.VirtualClock` so hours of simulated
        #: traffic elapse deterministically in seconds.  Latency
        #: *measurement* stays on ``time.perf_counter`` either way —
        #: observed service times are real even under a virtual clock.
        self.clock = time.monotonic if clock is None else clock
        self.queue = AdmissionQueue(config.queue_depth, clock=self.clock)
        self.limiter: RateLimiter | None = None
        if config.rate_limit_capacity > 0:
            self.limiter = RateLimiter(
                config.rate_limit_capacity,
                config.rate_limit_refill_per_second,
                clock=self.clock,
                idle_seconds=config.rate_limit_idle_seconds)
        self.stats = ServerStats()
        self.metrics = MetricsRegistry()
        self.tracer: Tracer | None = None
        if config.obs.enable_tracing:
            self.tracer = Tracer(seed=config.seed)
        self.breakers = BreakerRegistry(
            failure_threshold=config.breaker_failure_threshold,
            failure_rate_threshold=config.breaker_failure_rate,
            window_size=config.breaker_window,
            cooldown_seconds=config.breaker_cooldown_seconds,
            clock=self.clock)
        self.middlewares: list[LifecycleMiddleware] = []
        if self.tracer is not None:
            self.middlewares.append(TracingContextMiddleware(self.tracer))
        self.middlewares.append(StatsMiddleware(self.stats))
        self._running = False
        self._id_lock = threading.Lock()
        self._next_id = 0
        self.backend = backend
        backend.bind(self)

    # ------------------------------------------------------------------
    # factories (construction stays confined to repro.runtime)
    # ------------------------------------------------------------------
    def make_queue(self, depth: int,
                   clock: Callable[[], float] = time.monotonic
                   ) -> AdmissionQueue:
        """A bounded dispatch queue for backend-internal staging."""
        return AdmissionQueue(depth, clock=clock)

    def make_batcher(self, max_batch: int, deadline_seconds: float,
                     clock: Callable[[], float] = time.monotonic,
                     batchable_fn: Callable[[Any], bool] | None = None
                     ) -> MicroBatcher:
        """A request coalescer (micro-batch or scatter framing)."""
        return MicroBatcher(max_batch, deadline_seconds, clock=clock,
                            batchable_fn=batchable_fn)

    def next_request_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "RequestLifecycle":
        if self._running:
            raise ServeError("server already started")
        self.backend.boot()
        self.queue.reopen()
        self._running = True
        self.backend.launch()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, then drain or cancel.

        With ``drain`` (default) queued requests are still served;
        otherwise they resolve immediately with a shutdown error —
        silently (``timing=None``): a request the server never began is
        neither a failure nor a latency sample.
        """
        if not self._running:
            return
        self.queue.close()
        if not drain:
            for item in self.queue.drain():
                self.reply(item, ServeResponse(
                    request_id=item.request_id, op=item.request.op,
                    ok=False, error="server stopped before the request "
                    "was served", error_type="ServeError"), timing=None)
        deadline = time.monotonic() + timeout
        self.backend.shutdown(drain, deadline)
        self._running = False
        self.backend.finalize(deadline)

    # ------------------------------------------------------------------
    # the admission edge
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest,
               parent_span_id: str | None = None) -> PendingRequest:
        """Admit ``request`` and return a handle to its future response.

        Raises :class:`~repro.errors.RateLimitError` or
        :class:`~repro.errors.BackpressureError` (both carry
        ``retry_after``) when admission control rejects it.
        """
        if not self._running:
            raise ServeError("server is not running; call start()")
        request.validate()
        self.backend.check(request)
        if self.limiter is not None:
            try:
                self.limiter.admit(request.client_id)
            except ChatGraphError:
                for middleware in self.middlewares:
                    middleware.on_reject(request, "rate_limit")
                raise
        pending = PendingRequest(request, self.next_request_id(),
                                 time.perf_counter())
        if parent_span_id is not None:
            pending.parent_span_id = parent_span_id
        for middleware in self.middlewares:
            middleware.on_submit(pending)
        self.backend.prepare(pending)
        try:
            self.queue.put(pending)
        except ChatGraphError:
            for middleware in self.middlewares:
                middleware.on_reject(request, "backpressure")
            raise
        for middleware in self.middlewares:
            middleware.on_admitted(pending)
        return pending

    def request(self, request: ServeRequest,
                timeout: float | None = None) -> ServeResponse:
        """Submit and wait: the synchronous convenience path."""
        return self.submit(request).result(timeout)

    # ------------------------------------------------------------------
    # the reply edge
    # ------------------------------------------------------------------
    def reply(self, pending: PendingRequest, response: ServeResponse,
              timing: ReplyTiming | None) -> None:
        """Resolve one request, exactly once, with its bookkeeping.

        Every backend path — scalar, micro-batched, gathered from a
        shard, failed over, shed at shutdown — funnels through here, so
        counter and histogram semantics are identical everywhere.
        """
        if timing is not None:
            if timing.queued is not None:
                response.queued_seconds = timing.queued
            if timing.service is not None:
                response.service_seconds = timing.service
        for middleware in self.middlewares:
            middleware.on_reply(pending, response, timing)
        pending._resolve(response)

    def record_service_time(self, seconds: float) -> None:
        """Feed the admission queue's EMA behind backpressure hints.

        Called by backends with the *amortized* per-request cost (a
        coalesced batch contributes ``service / len(batch)``), which is
        why it is explicit rather than folded into :meth:`reply`.
        """
        self.queue.record_service_time(seconds)

    # ------------------------------------------------------------------
    # snapshots (one builder; the facades' shapes cannot drift)
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        from .snapshot import build_stats_snapshot

        return build_stats_snapshot(self, self.backend.stats_sections())

    def metrics_snapshot(self) -> dict[str, Any]:
        from .snapshot import build_metrics_snapshot

        return build_metrics_snapshot(self, self.backend)
