"""The serving facade and request types for in-process serving.

``ChatGraphServer`` turns the synchronous, single-caller facade into a
multi-session service: callers submit :class:`ServeRequest` objects
(propose / execute / ask) which pass admission control (per-client rate
limit, bounded queue with backpressure) and are dispatched to N worker
threads.  Each request gets a deterministic content-keyed seed, so a
fixed workload produces bit-identical results whether it is served by
one worker or eight, in any arrival order.

Since the request-plane unification, the server is a thin facade over
the shared :class:`~repro.runtime.lifecycle.RequestLifecycle` with a
:class:`~repro.runtime.local.LocalBackend` — the same runtime the
sharded tier runs on, which is what keeps the two servers' admission
semantics, counters, and report shapes identical.  This module keeps
the *request types* (:class:`ServeRequest`, :class:`ServeResponse`,
:class:`PendingRequest`) every layer shares.

Example::

    from repro import ChatGraph
    from repro.serve import ChatGraphServer, ServeRequest

    server = ChatGraphServer(ChatGraph.pretrained())
    with server:
        response = server.ask("write a brief report for G", graph=g)
        print(response.value.answer)
    print(server.stats()["counters"])
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..apis.chain import APIChain
from ..config import ServeConfig
from ..core.chatgraph import ChatGraph
from ..core.pipeline import PipelineResult
from ..errors import ServeError
from ..graphs.graph import Graph

#: Operations a :class:`ServeRequest` may name.
OPS = ("propose", "execute", "ask")


@dataclass
class ServeRequest:
    """One unit of work submitted to the server.

    ``propose`` and ``ask`` need ``text`` (plus an optional graph);
    ``execute`` needs the ``pipeline_result`` of an earlier propose and
    may carry a user-edited ``chain`` (paper scenario 4's confirm/edit
    loop, server-side).
    """

    op: str
    text: str = ""
    graph: Graph | None = None
    #: Name of a graph in the server's durable catalog (see
    #: ``ServeConfig.store_root``); resolved to an immutable
    #: epoch-pinned view at service time.  Mutually exclusive with an
    #: inline ``graph``.
    graph_name: str | None = None
    #: Binds an ``ask`` to a stateful dialog (a *session turn*);
    #: None = stateless.
    session_id: str | None = None
    #: Rate-limiting principal.
    client_id: str = "anonymous"
    #: For ``op="execute"``: the proposal to run.
    pipeline_result: PipelineResult | None = None
    #: For ``op="execute"``: optional edited chain replacing the
    #: proposed one.
    chain: APIChain | None = None
    attachments: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.op not in OPS:
            raise ServeError(f"unknown op {self.op!r}; expected one of "
                             f"{OPS}")
        if self.op in ("propose", "ask") and not self.text:
            raise ServeError(f"op {self.op!r} requires text")
        if self.op == "execute" and self.pipeline_result is None:
            raise ServeError("op 'execute' requires pipeline_result")
        if self.op == "propose" and self.session_id is not None:
            # it would be answered statelessly, never seeing the
            # session's graph
            raise ServeError(
                "op 'propose' cannot carry a session_id: a session turn "
                "is an 'ask' with a session_id")
        if self.graph is not None and self.graph_name is not None:
            raise ServeError(
                "pass either an inline graph or a graph_name, not both")

    def content_seed(self, base_seed: int) -> int:
        """Deterministic seed from request *content* (not arrival order).

        Hashing the identifying fields keeps results reproducible and
        independent of worker interleaving: the same request under the
        same base seed always computes with the same seed.
        """
        material = "\x1f".join((
            str(base_seed), self.op, self.text,
            self.session_id or "", self.client_id,
        ))
        # appended only when present so store-less requests keep the
        # exact seeds (and span identities) they had before the catalog
        if self.graph_name is not None:
            material += "\x1f" + self.graph_name
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")


@dataclass
class ServeResponse:
    """Outcome of one served request."""

    request_id: int
    op: str
    ok: bool
    #: ``propose`` -> :class:`PipelineResult`; ``ask`` ->
    #: :class:`ChatResponse`; ``execute`` -> :class:`ChatResponse`.
    value: Any = None
    error: str = ""
    error_type: str = ""
    worker: str = ""
    seed: int = 0
    queued_seconds: float = 0.0
    service_seconds: float = 0.0


class PendingRequest:
    """Caller-side handle: a queued request and its future response."""

    def __init__(self, request: ServeRequest, request_id: int,
                 enqueued_at: float) -> None:
        self.request = request
        self.request_id = request_id
        self.enqueued_at = enqueued_at
        #: Span ID active on the submitting thread (trace-context
        #: propagation across the worker-pool boundary).
        self.parent_span_id: str | None = None
        #: Seconds this request waited inside the micro-batcher for
        #: company (stamped by :meth:`MicroBatcher.collect`; 0 for a
        #: request that passed through).  Distinct from the
        #: admission-queue wait.
        self.batch_wait_seconds: float = 0.0
        self._done = threading.Event()
        self._response: ServeResponse | None = None
        #: Completion hooks (see :meth:`add_done_callback`).
        self._hooks: list[Callable[[PendingRequest], None]] = []

    def done(self) -> bool:
        return self._done.is_set()

    def add_done_callback(self, fn: Callable[["PendingRequest"], None]
                          ) -> None:
        """Call ``fn(self)`` once this request resolves — at once if it
        already has; otherwise on the thread that resolves it."""
        self._hooks.append(fn)
        if self._done.is_set():
            self._run_hooks()

    def _run_hooks(self) -> None:
        # ``list.pop`` is atomic, so a hook attached while the request
        # resolves runs exactly once, on whichever thread pops it
        while self._hooks:
            try:
                hook = self._hooks.pop()
            except IndexError:
                return
            hook(self)

    def result(self, timeout: float | None = None) -> ServeResponse:
        """Block until the worker resolves this request."""
        if not self._done.wait(timeout):
            raise ServeError(
                f"request {self.request_id} not done after {timeout}s")
        assert self._response is not None
        return self._response

    def _resolve(self, response: ServeResponse) -> None:
        self._response = response
        self._done.set()
        self._run_hooks()


class ServerFacade:
    """The surface both serving facades share, defined once.

    A facade is a backend plugged into one
    :class:`~repro.runtime.lifecycle.RequestLifecycle`: admission, id
    allocation, stats and the reply edge are the lifecycle's, everything
    between the edges is the backend's.  Subclasses choose the backend
    and add only what it alone offers; callers needing the runtime's
    internals reach through ``server.lifecycle`` / ``server.backend``.
    Lifecycle: :meth:`start` -> submit / request -> :meth:`stop` (or
    use the instance as a context manager).
    """

    def __init__(self, config: ServeConfig, backend: Any,
                 clock: Any) -> None:
        # imported lazily: repro.runtime imports this module for the
        # request types, so it must finish loading first
        from ..runtime import RequestLifecycle

        self.config = config
        self.backend = backend
        self.lifecycle = RequestLifecycle(config, backend, clock=clock)

    @property
    def metrics(self) -> Any:
        return self.lifecycle.metrics

    @property
    def tracer(self) -> Any:
        return self.lifecycle.tracer

    @property
    def breakers(self) -> Any:
        return self.lifecycle.breakers

    @property
    def running(self) -> bool:
        return self.lifecycle.running

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServerFacade":
        self.lifecycle.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, then drain or cancel.

        With ``drain`` (default) queued requests are still served;
        otherwise they resolve immediately with a shutdown error.
        """
        self.lifecycle.stop(drain=drain, timeout=timeout)

    def __enter__(self) -> "ServerFacade":
        if not self.running:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest,
               parent_span_id: str | None = None) -> PendingRequest:
        """Admit ``request`` and return a handle to its future response.

        Raises :class:`~repro.errors.RateLimitError` or
        :class:`~repro.errors.BackpressureError` (both carry
        ``retry_after``) when admission control rejects it.

        ``parent_span_id`` overrides the submitting thread's active
        span as the parent of the request span — the cross-process
        trace handoff: a shard worker passes the coordinator-side span
        id carried in the request wire, so merged traces keep one tree.
        """
        return self.lifecycle.submit(request,
                                     parent_span_id=parent_span_id)

    def request(self, request: ServeRequest,
                timeout: float | None = None) -> ServeResponse:
        """Submit and wait: the synchronous convenience path."""
        return self.lifecycle.request(request, timeout)

    def propose(self, text: str, graph: Graph | None = None,
                **kwargs: Any) -> ServeResponse:
        return self.request(ServeRequest(op="propose", text=text,
                                         graph=graph, **kwargs))

    def ask(self, text: str, graph: Graph | None = None,
            **kwargs: Any) -> ServeResponse:
        return self.request(ServeRequest(op="ask", text=text, graph=graph,
                                         **kwargs))

    # ------------------------------------------------------------------
    # introspection (one snapshot builder; see repro.runtime.snapshot)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """One merged snapshot: counters, latency, caches, sessions,
        queue, shards.

        Top-level ``counters``/``latency`` are the lifecycle's alone —
        every admitted request resolves exactly once there, so
        reconciliation against a workload ledger is exact; on a fleet,
        shard-side detail lives under ``["shards"]["per_shard"]`` and
        sessions/caches are merged fleet-wide views.
        """
        return self.lifecycle.stats_snapshot()

    def metrics_snapshot(self) -> dict[str, Any]:
        """The observability view: counters, histograms, derived gauges.

        ``counters``/``histograms`` are this process's
        :class:`~repro.obs.MetricsRegistry` — request-edge counters,
        executor event counters, per-stage latency quantiles
        (p50/p95/p99) — and on a fleet the lossless sum of every
        shard's registry underneath it (the rule is stated in
        :mod:`repro.runtime.snapshot`); ``gauges`` (queue size, live
        sessions, cache hit rates, open breakers) are derived from the
        same stats snapshot.  Feed the result to
        :func:`repro.obs.render_metrics_markdown` for a report.
        """
        return self.lifecycle.metrics_snapshot()


class ChatGraphServer(ServerFacade):
    """Concurrent front-end over one shared :class:`ChatGraph`.

    The :class:`ServerFacade` surface over a
    :class:`~repro.runtime.local.LocalBackend`, which holds the worker
    threads, micro-batching, sessions, caches and the catalog binding.
    """

    def __init__(self, chatgraph: ChatGraph,
                 config: ServeConfig | None = None,
                 catalog: Any = None,
                 clock: Any = None) -> None:
        from ..runtime import LocalBackend

        self.chatgraph = chatgraph
        super().__init__(config or ServeConfig(),
                         LocalBackend(chatgraph, catalog=catalog), clock)

    @property
    def sessions(self) -> Any:
        return self.backend.sessions

    @property
    def catalog(self) -> Any:
        return self.backend.catalog

    def warm_caches(self, names: Any = None) -> int:
        """Pre-populate pipeline caches from the catalog's named graphs
        (see :meth:`repro.runtime.local.LocalBackend.warm_caches`)."""
        return self.backend.warm_caches(names)

    def execute(self, pipeline_result: PipelineResult,
                chain: APIChain | None = None,
                **kwargs: Any) -> ServeResponse:
        return self.request(ServeRequest(op="execute",
                                         pipeline_result=pipeline_result,
                                         chain=chain, **kwargs))
