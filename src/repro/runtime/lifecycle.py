"""The request lifecycle: one admission-to-reply path for every server.

``RequestLifecycle`` is the single request plane both serving facades
run on.  It owns admission control (the bounded queue, the per-client
rate limiter), id allocation, the metrics/tracing/breaker
registries, and the two edges every request crosses — ``submit`` (admit
or reject) and ``reply`` (resolve the caller's handle, exactly once).
Each edge does its own bookkeeping — counters, latency histograms, the
trace-context stamp — so there is one place per edge where a request is
observed, as :meth:`repro.core.stages.StageGraph.run` is on the
execution plane.

Everything between the edges — *how* a request is routed, coalesced,
dispatched and gathered — belongs to the pluggable
:class:`ExecutionBackend` (a worker-thread pool in
:class:`~repro.runtime.local.LocalBackend`, a routed process fleet in
:class:`~repro.runtime.shard.ShardBackend`).

The admission-control primitives are constructed only in this package
(``tests/test_runtime_wiring_lint.py`` enforces it): the admission
queue, limiter and breakers here, the one coalescer in the local
backend.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..config import ServeConfig
from ..errors import BackpressureError, RateLimitError, ServeError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..serve.admission import AdmissionQueue, RateLimiter
from ..serve.breaker import BreakerRegistry
from ..serve.engine import PendingRequest, ServeRequest, ServeResponse

__all__ = ["ExecutionBackend", "ReplyTiming", "RequestLifecycle"]


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
        :func:`repro.runtime.snapshot.build_stats_snapshot`).

        A backend whose work runs in other processes adds
        ``"worker_dumps"``: each worker's
        :meth:`~repro.obs.metrics.MetricsRegistry.dump`, from the same
        poll as the sections — ``metrics_snapshot()`` sums them.
        """
        return {"sessions": {}, "caches": {}, "pipeline_stages": [],
                "store": {}, "shards": {"count": 0, "alive": 0,
                                        "per_shard": {}}}


class RequestLifecycle:
    """One request plane: admission, id allocation, reply, snapshots.

    The lifecycle is deliberately backend-blind: ``submit`` ends with
    the request parked on the admission queue, and the backend's
    consumers carry it to exactly one :meth:`reply`.  Metrics, tracing
    and breaker state live here so every backend shares one set of
    registries (and one snapshot shape); :attr:`metrics` is the only
    counter/histogram store — both edges, the backends and the
    executor's listener all write it.
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
        self._running = False
        self._id_lock = threading.Lock()
        self._next_id = 0
        self.backend = backend
        backend.bind(self)

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
            except RateLimitError:
                self.metrics.incr("rejected_rate_limit")
                raise
        pending = PendingRequest(request, self.next_request_id(),
                                 time.perf_counter())
        # trace context crosses the submission boundary: the submitting
        # thread's active span parents the request, unless the caller
        # named one (the cross-process handoff a shard worker performs
        # with the coordinator-side span id)
        if parent_span_id is not None:
            pending.parent_span_id = parent_span_id
        elif self.tracer is not None:
            pending.parent_span_id = self.tracer.current_id()
        self.backend.prepare(pending)
        try:
            self.queue.put(pending)
        except BackpressureError:
            # only shed load is counted: a queue closed by ``stop()``
            # refuses with a plain ServeError, which is not a rejection
            self.metrics.incr("rejected_backpressure")
            raise
        self.metrics.incr("admitted")
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

        Every backend path — a worker's flush, a reply gathered from a
        shard, a failover, a shutdown shed — funnels through here: the
        one place the failed/op counters and the queued/service/total
        histograms are written, so the two serving facades cannot
        diverge in what they count.
        """
        if timing is not None:
            if not response.ok:
                self.metrics.incr("failed")
            if timing.queued is not None:
                response.queued_seconds = timing.queued
                self.metrics.observe("queued", timing.queued)
            if timing.service is not None:
                response.service_seconds = timing.service
                self.metrics.observe("service", timing.service)
            if timing.queued is not None and timing.service is not None:
                self.metrics.observe("total", timing.queued + timing.service)
            self.metrics.incr(f"op_{pending.request.op}")
            if timing.batched:
                self.metrics.incr("microbatched")
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

        return build_metrics_snapshot(self)
