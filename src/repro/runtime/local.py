"""The in-process execution backend: a worker pool over one ChatGraph.

``LocalBackend`` is the request-plane half of what used to be the
monolithic serve engine: N worker threads consuming the lifecycle's
admission queue, a micro-batcher coalescing ``propose``/``ask``
requests (stateless ones and turns of distinct sessions) into one pass
through the pipeline stages (a lone request is a batch of one), the
session store, the pipeline caches, the durable-catalog
binding, and the robustness installation (policy + breakers) on the
shared :class:`~repro.core.chatgraph.ChatGraph`.

Admission and reply bookkeeping live in the
:class:`~repro.runtime.lifecycle.RequestLifecycle`; this module only
decides *how* a request is served — with which batchmates, on which
worker, in which session — and hands every outcome to
``lifecycle.reply``.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..apis.executor import ExecutionPolicy, StepPolicy
from ..core.chatgraph import ChatGraph, ChatResponse
from ..core.pipeline import PipelineResult
from ..core.reports import render_answer
from ..errors import ServeError
from ..graphs.graph import Graph
from ..llm.prompts import Prompt
from ..obs.trace import span
from ..serve.cache import PipelineCaches
from ..serve.engine import PendingRequest, ServeRequest, ServeResponse
from ..serve.microbatch import MicroBatcher
from ..serve.sessions import SessionEntry, SessionStore
from .lifecycle import ExecutionBackend, ReplyTiming, RequestLifecycle

__all__ = ["LocalBackend"]


class LocalBackend(ExecutionBackend):
    """Worker threads + micro-batching over one shared ChatGraph.

    The underlying pipeline is read-only at inference time, so one
    model serves every worker; per-request state (contexts, monitors,
    executors) is never shared.
    """

    def __init__(self, chatgraph: ChatGraph,
                 catalog: Any = None) -> None:
        self.chatgraph = chatgraph
        self.catalog = catalog
        self._workers: list[threading.Thread] = []
        self._saved_tracer: Any = None
        self._saved_robustness: tuple[Any, Any] | None = None

    def bind(self, lifecycle: RequestLifecycle) -> None:
        super().bind(lifecycle)
        config = lifecycle.config
        self.caches: PipelineCaches | None = None
        if config.enable_caches:
            self.caches = PipelineCaches.with_sizes()
        self.chatgraph.enable_caches(self.caches)
        #: Per-stage histogram names, derived from the pipeline's stage
        #: graph (the single stage definition) rather than a mirror.
        self.pipeline_stages = tuple(
            self.chatgraph.pipeline.graph.observed_stage_names)
        self.sessions = SessionStore(
            self.chatgraph, ttl_seconds=config.session_ttl_seconds,
            clock=lifecycle.clock)
        #: The request coalescer; ``microbatch_size`` 0 and 1 both mean
        #: a flush of one.  The batcher stays on real time even under
        #: an injected clock: its deadline is awaited by polling
        #: workers, and a virtual clock only advances between
        #: submissions, so a partial batch's coalescing window could
        #: never expire.
        self.batcher = MicroBatcher(max(1, config.microbatch_size),
                                    config.microbatch_deadline_seconds)
        # durable graph catalog: passed in, or built from the config's
        # store_root; sessions pin (name, epoch) refs into it and its
        # compactions evict sessions left on pruned epochs
        if self.catalog is None and config.store_root:
            from ..store.catalog import GraphCatalog
            self.catalog = GraphCatalog(
                config.store_root,
                metrics=lifecycle.metrics, tracer=lifecycle.tracer)
        if self.catalog is not None:
            self.chatgraph.use_catalog(self.catalog)
        # robustness defaults the executor applies to each chain step
        self.policy = ExecutionPolicy(
            default=StepPolicy(
                timeout_seconds=(config.step_timeout_seconds or None),
                max_retries=config.step_max_retries,
                backoff_base_seconds=config.retry_backoff_seconds,
                critical=False),
            seed=config.seed)

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def boot(self) -> None:
        lifecycle = self.lifecycle
        # executor events (step outcomes, retries, timeouts, breaker
        # trips) flow through the executor's listener pipeline into the
        # server's counters while this server runs
        listener = lifecycle.metrics.on_execution_event
        if listener not in self.chatgraph.executor.listeners():
            self.chatgraph.executor.add_listener(listener)
        # install this server's tracer for the duration of the run
        if lifecycle.tracer is not None:
            self._saved_tracer = self.chatgraph.tracer
            self.chatgraph.set_tracer(lifecycle.tracer)
        # install this server's robustness settings for the duration of
        # the run; stop() restores whatever the caller had configured
        self._saved_robustness = (self.chatgraph.robustness_policy,
                                  self.chatgraph.breakers)
        self.chatgraph.set_robustness(policy=self.policy,
                                      breakers=lifecycle.breakers)
        # compactions of the durable store evict sessions whose pinned
        # epoch was pruned, for as long as this server runs
        if self.catalog is not None:
            self.catalog.add_compact_listener(
                self.sessions.evict_compacted)

    def launch(self) -> None:
        self._workers = []
        for index in range(self.lifecycle.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(f"worker-{index}",),
                name=f"chatgraph-serve-{index}", daemon=True)
            thread.start()
            self._workers.append(thread)

    def shutdown(self, drain: bool, deadline: float) -> None:
        for thread in self._workers:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._workers = []

    def finalize(self, deadline: float) -> None:
        lifecycle = self.lifecycle
        try:
            self.chatgraph.executor.remove_listener(
                lifecycle.metrics.on_execution_event)
        except ValueError:
            pass
        if lifecycle.tracer is not None:
            self.chatgraph.set_tracer(self._saved_tracer)
            self._saved_tracer = None
        if self._saved_robustness is not None:
            self.chatgraph.set_robustness(*self._saved_robustness)
            self._saved_robustness = None
        if self.catalog is not None:
            self.catalog.remove_compact_listener(
                self.sessions.evict_compacted)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def stats_sections(self) -> dict[str, Any]:
        return {
            "sessions": self.sessions.stats(),
            "caches": (self.caches.stats()
                       if self.caches is not None else {}),
            "pipeline_stages": list(self.pipeline_stages),
            "store": (self.catalog.stats()
                      if self.catalog is not None else {}),
            # uniform surface with the shard backend: a single-process
            # server simply has no shards
            "shards": {"count": 0, "alive": 0, "per_shard": {}},
        }

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self, worker: str) -> None:
        queue = self.lifecycle.queue
        while True:
            item = queue.get(timeout=0.05)
            if item is None:
                if queue.closed and len(queue) == 0:
                    return
                continue
            batch, passthrough = self.batcher.collect(queue, item)
            if batch:
                self._serve(batch, worker)
            for single in passthrough:
                self._serve([single], worker)

    def _serve(self, batch: list[PendingRequest], worker: str) -> None:
        """Serve the requests of one flush and resolve their handles.

        The one serve body: a lone request is a batch of one.  The
        ``propose``/``ask`` members — stateless requests and session
        turns, at most one turn per session (the batcher sees to that) —
        share one pipeline pass; then each member runs its own tail
        under its own ``request:<op>`` span.  A failure — a bad graph
        name, a stage or step raising — degrades that one response,
        never its batchmates, and never the worker.
        """
        lifecycle = self.lifecycle
        metrics, tracer = lifecycle.metrics, lifecycle.tracer
        # all a shared pass changes is bookkeeping: the micro-batch
        # series count coalesced flushes only, and a lone request's
        # pass sits inside its own request span, not a ``microbatch``
        shared = len(batch) > 1
        batch_attrs = {"batch_size": len(batch)} if shared else {}
        start = time.perf_counter()
        seeds = [item.request.content_seed(lifecycle.config.seed)
                 for item in batch]
        outcomes: list[Any] | None = None
        if shared:
            for item in batch:
                # the coalescing wait the batcher added on top of
                # admission queueing (stamped per item at flush time) —
                # not the full queue delay, which the ``queued``
                # histogram already holds
                metrics.observe("microbatch_queue_delay",
                                item.batch_wait_seconds)
            metrics.observe("microbatch_size", float(len(batch)))
            with span(tracer, "microbatch", kind="batch",
                      key=f"{seeds[0]:016x}", batch_size=len(batch)):
                outcomes = self._propose(batch, seeds)
        responses: list[ServeResponse] = []
        for index, (item, seed) in enumerate(zip(batch, seeds)):
            request = item.request
            response = ServeResponse(request_id=item.request_id,
                                     op=request.op, ok=True,
                                     worker=worker, seed=seed)
            responses.append(response)
            try:
                # the request's root span is keyed by the content seed
                # (not the arrival-order request id), so seeded
                # workloads produce the same span identity no matter
                # which worker serves them; the submitting thread's
                # span (if any) becomes the parent
                with span(tracer, f"request:{request.op}", kind="request",
                          key=f"{seed:016x}", parent=item.parent_span_id,
                          op=request.op, client=request.client_id,
                          **batch_attrs) as request_span:
                    if outcomes is None:
                        outcomes = self._propose(batch, seeds)
                    response.value = self._finish(item, outcomes[index])
                    request_span.set(ok=True)
            except Exception as exc:  # noqa: BLE001 - keep workers alive
                response.ok = False
                response.error = str(exc)
                response.error_type = type(exc).__name__
        service = time.perf_counter() - start
        # the whole flush shares one service interval; the EMA feeding
        # backpressure retry hints gets the per-request amortized cost
        lifecycle.record_service_time(service / len(batch))
        for item, response in zip(batch, responses):
            lifecycle.reply(item, response,
                            ReplyTiming(queued=start - item.enqueued_at,
                                        service=service, batched=shared))

    def _propose(self, batch: list[PendingRequest],
                 seeds: list[int]) -> list[Any]:
        """One pipeline pass over the ``propose``/``ask`` members of
        ``batch``.

        Returns one outcome per member: its :class:`PipelineResult`,
        the exception that failed it (raised again inside its request
        span by :meth:`_finish`), or None for an ``execute``.  A
        session turn that reached the pass has ``(entry, result)``: it
        holds its session's lock, which :meth:`_finish` releases after
        the turn's tail.  The locks are taken in session-id order, so
        two flushes that share sessions cannot wait on each other.
        """
        outcomes: list[Any] = [None] * len(batch)
        prompts: dict[int, Prompt] = {}
        turns: list[int] = []
        for index, (item, seed) in enumerate(zip(batch, seeds)):
            if not MicroBatcher.batchable(item):
                continue
            if item.request.session_id is not None:
                turns.append(index)
                continue
            try:
                graph = self._resolve_graph(item.request)
            except Exception as exc:  # noqa: BLE001 - this item only
                outcomes[index] = exc
                continue
            attachments = dict(item.request.attachments)
            attachments.setdefault("request_seed", seed)
            prompts[index] = Prompt(text=item.request.text, graph=graph,
                                    attachments=attachments)
        entries: dict[int, SessionEntry] = {}
        for index in sorted(turns,
                            key=lambda i: batch[i].request.session_id):
            try:
                entries[index], prompts[index] = self._open_turn(
                    batch[index].request)
            except Exception as exc:  # noqa: BLE001 - this item only
                outcomes[index] = exc
        if prompts:
            members = sorted(prompts)
            try:
                results = self.chatgraph.propose_batch(
                    [prompts[index] for index in members],
                    return_exceptions=True)
            except Exception as exc:  # noqa: BLE001 - fail the pass
                results = [exc] * len(members)
            for index, result in zip(members, results):
                outcomes[index] = ((entries[index], result)
                                   if index in entries else result)
        return outcomes

    def _open_turn(self, request: ServeRequest
                   ) -> tuple[SessionEntry, Prompt]:
        """Take a session turn's lock, apply its upload and build the
        prompt its session would propose.  The lock stays held for
        :meth:`_finish` unless this raises."""
        view = self._resolve_view(request)
        entry = self.sessions.get_or_create(request.session_id)
        entry.lock.acquire()
        try:
            if view is not None:
                entry.session.upload_graph(view.graph,
                                           **request.attachments)
                entry.graph_ref = (view.name, view.epoch)
            elif request.graph is not None:
                entry.session.upload_graph(request.graph,
                                           **request.attachments)
            return entry, entry.session.build_prompt(request.text)
        except BaseException:
            entry.lock.release()
            raise

    def _finish(self, item: PendingRequest, outcome: Any) -> Any:
        """One member's tail: what its response carries as ``value``
        (execution carries per-request state and does not batch, so
        ``ask`` chains run one by one here)."""
        request = item.request
        if request.op == "execute":
            return self._execute(request.pipeline_result, request.chain)
        if isinstance(outcome, BaseException):
            raise outcome
        if request.session_id is None:
            self._record_pipeline(outcome)
            return outcome if request.op == "propose" \
                else self._execute(outcome)
        # a session turn: an ``ask`` with a session_id
        # (``ServeRequest.validate`` refuses one on a ``propose``)
        entry, result = outcome
        try:
            if isinstance(result, BaseException):
                raise result
            entry.session.hold(result)
            chat_response = entry.session.confirm()
        finally:
            entry.lock.release()
        self._record_pipeline(chat_response.pipeline)
        if chat_response.record is not None:
            self._record_execution(chat_response.record)
        return chat_response

    def _record_pipeline(self, result: PipelineResult) -> None:
        # per-stage latency histogram names come from the stage graph
        # (via the result's timings) — never from a hand-written list
        metrics = self.lifecycle.metrics
        for stage, seconds in result.timings.items():
            metrics.observe(stage, seconds)
        if result.used_fallback:
            metrics.incr("fallback_chains")

    def _resolve_view(self, request: ServeRequest) -> Any:
        """The catalog view for ``request.graph_name`` (or None)."""
        if request.graph_name is None:
            return None
        if self.catalog is None:
            raise ServeError(
                f"request names graph {request.graph_name!r} but the "
                "server has no graph catalog (set ServeConfig."
                "store_root or pass catalog=)")
        return self.catalog.view(request.graph_name)

    def _resolve_graph(self, request: ServeRequest) -> Graph | None:
        view = self._resolve_view(request)
        return request.graph if view is None else view.graph

    def _record_execution(self, record: Any) -> None:
        metrics = self.lifecycle.metrics
        metrics.observe("execute", record.total_seconds)
        if record.is_degraded:
            metrics.incr("degraded_responses")

    def _execute(self, result: PipelineResult,
                 chain: Any = None) -> ChatResponse:
        """Run a proposed (or edited) chain and assemble its chat reply."""
        record, monitor = self.chatgraph.execute(result, chain=chain)
        self._record_execution(record)
        return ChatResponse(
            prompt=result.prompt,
            pipeline=result,
            record=record,
            answer=render_answer(record),
            monitor=monitor,
            seconds=record.total_seconds,
        )
