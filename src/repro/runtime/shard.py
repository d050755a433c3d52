"""The sharded execution backend: routing, forwarding, migration.

:class:`ShardBackend` runs the request plane's middle — route →
forward → gather — over N shard worker *processes* (see
:mod:`repro.shard.worker`), behind the same
:class:`~repro.runtime.lifecycle.RequestLifecycle` the in-process
backend uses.  The pieces:

* **routing** — a consistent-hash :class:`~repro.shard.ring.HashRing`
  on the session / graph-name / query key keeps each session and each
  graph's cache locality on one shard.  Graphs named in
  ``ServeConfig.shard_hot_graphs`` are *hot*: any of their first
  :data:`HOT_GRAPH_REPLICAS` ring shards may serve a stateless read,
  picked by least outstanding work.
* **forwarding** — the router writes each request to its shard as its
  own ``request`` frame; the shard batches execution itself (its
  ``microbatch_*``), and a per-shard reader resolves each caller's
  :class:`~repro.serve.engine.PendingRequest` from its own ``reply``
  frame through ``lifecycle.reply``.
* **graph refs** — an inline graph is shipped to each shard once per
  graph object and content: the frame names it by
  :func:`~repro.shard.protocol.graph_ref` and carries the body only
  when the shard does not hold that ref.  The worker keeps what it was
  sent in a :class:`~repro.shard.protocol.GraphTable`, so its memos
  survive between requests; each handle keeps a mirror of that table,
  updated in frame order under its send lock and cleared whenever a
  new worker generation is installed.
* **failure** — missed heartbeats or a dropped pipe mark the shard
  dead: its ``shard:<i>`` circuit trips, every orphaned in-flight
  request fails over along its ring preference, and a background
  restart replaces the process.  A request a live shard leaves
  unanswered for :data:`RESULT_TIMEOUT_SECONDS` fails alone.  Each
  worker's process and pipes live behind one :class:`ShardLink`, so no
  worker or fd outlives ``stop()``.
* **migration** — :meth:`add_shard` / :meth:`remove_shard` reshape the
  fleet live: the router pauses, outstanding work quiesces to zero,
  pinned sessions move to their new ring-preferred shards — their
  state (dialog and uploaded graph) fetched through the ``sessions``
  RPC, then adopt/evict RPCs (planned by
  :func:`~repro.runtime.migration.plan_migration`) — and the ring
  swaps atomically before routing resumes — zero requests lost, none
  served twice.  Nothing pre-fills a cache: a moved graph's first
  request on its new owner fills that shard's caches as any miss
  does.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import select
import subprocess
import sys
import threading
import time
from typing import Any

from ..errors import ChatGraphError, ServeError
from ..obs.export import merge_traces
from ..serve.engine import PendingRequest, ServeRequest, ServeResponse
from ..shard.protocol import (
    GraphTable,
    ShardProtocolError,
    encode_request,
    read_frame,
    response_from_wire,
    write_frame,
)
from ..shard.ring import HashRing
from ..shard.worker import HEARTBEAT_SECONDS, serve_config_to_wire
from .lifecycle import ExecutionBackend, ReplyTiming, RequestLifecycle
from .migration import plan_migration

__all__ = ["HEARTBEAT_TIMEOUT_SECONDS", "HOT_GRAPH_REPLICAS",
           "MIGRATION_TIMEOUT_SECONDS", "RESULT_TIMEOUT_SECONDS",
           "SPAWN_TIMEOUT_SECONDS", "STATS_TIMEOUT_SECONDS",
           "ShardBackend", "ShardLink"]

#: Ceiling on one worker's model build + server start: a worker that
#: has not said hello by then is killed and its spawn fails.
SPAWN_TIMEOUT_SECONDS = 180.0
#: Ceiling on one stats round trip to a live shard.
STATS_TIMEOUT_SECONDS = 15.0
#: Silence (any frame counts, heartbeats included) that marks a shard
#: dead — twenty missed beats, so a busy worker is never taken for a
#: wedged one.
HEARTBEAT_TIMEOUT_SECONDS = 10.0
#: Ring shards serving each hot graph (``ServeConfig.shard_hot_graphs``):
#: the smallest set that spreads reads and survives one death.
HOT_GRAPH_REPLICAS = 2
#: Ceiling on one request's wait for its reply (the heartbeat timeout
#: governs hung *processes*; this governs hung *requests*).
RESULT_TIMEOUT_SECONDS = 120.0
#: Ceiling on one live ring change: quiesce plus the session
#: inventory/state/adopt/evict round trips finish within this budget or
#: the migration aborts with the old ring intact.
MIGRATION_TIMEOUT_SECONDS = 30.0


class ShardLink:
    """One shard worker process and its two pipes: the only code that
    spawns, writes to, reads from, kills, stops or reaps a worker.
    Both exits end in the same close-and-reap."""

    pid = 0
    _proc: subprocess.Popen | None = None

    def __init__(self) -> None:
        self._lock = threading.Lock()  # frames never interleave

    def spawn(self, init: dict[str, Any], deadline: float) -> dict[str, Any]:
        """Start the worker, send ``init``, return its hello.  A worker
        silent past ``deadline`` (monotonic), or dead first, is killed
        and reaped, and a ServeError names its shard."""
        self._proc = proc = subprocess.Popen(
            [sys.executable, "-m", "repro.shard.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=dict(os.environ))
        self.pid = proc.pid
        ready = self.send(init) and select.select(
            [proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]
        hello = self.recv() if ready else None
        if hello is None or hello.get("type") != "hello":
            self.kill()
            raise ServeError(f"shard {init['shard']} " + (
                f"sent {hello!r} instead of hello" if ready
                else "did not say hello by its spawn deadline"))
        return hello

    def send(self, frame: dict[str, Any] | bytes) -> bool:
        """Write one frame (or its payload from
        :func:`~repro.shard.protocol.encode_frame`); False once the
        worker or link is gone."""
        try:
            with self._lock:
                write_frame(self._proc.stdin, frame)
            return True
        except (OSError, ValueError, ChatGraphError):
            return False

    def recv(self) -> dict[str, Any] | None:
        """The next frame; None at EOF, on a torn stream, or closed."""
        try:
            return read_frame(self._proc.stdout)
        except (OSError, ValueError, ChatGraphError):
            return None

    def kill(self) -> None:
        """SIGKILL, close both pipes (unread frames drop), reap; idempotent."""
        if self._proc is not None:
            self._proc.kill()
            for stream in (self._proc.stdin, self._proc.stdout):
                with contextlib.suppress(OSError):  # a write never read
                    stream.close()
            self._proc.wait()

    def stop(self, deadline: float) -> None:
        """Send ``shutdown``, let the worker drain and exit until
        ``deadline``, then :meth:`kill` (a no-op signal unless it lags)."""
        if self._proc is not None:
            self.send({"type": "shutdown"})
            with contextlib.suppress(subprocess.TimeoutExpired):
                self._proc.wait(max(0.0, deadline - time.monotonic()))
            self.kill()


class _ShardHandle:
    """Coordinator-side state of one shard worker."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"shard:{index}"
        self.lock = threading.Lock()
        #: Orders request frames: taken before ``lock``, held from the
        #: ship-or-ref decision through the write, so ``graphs`` sees
        #: refs in the order the worker reads them.
        self.send_lock = threading.Lock()
        #: Mirror of the live worker's graph table (see
        #: :func:`~repro.shard.protocol.encode_request`).
        self.graphs = GraphTable()
        #: The live worker's link (None while down) and its reader.
        self.link: ShardLink | None = None
        self.reader: threading.Thread | None = None
        self.pid = 0
        self.alive = False
        #: A retired handle left the fleet through a migration: its
        #: exit is coordinated (like shutdown), so the death path skips
        #: counters, breaker trips, failover and restart for it.
        self.retired = False
        #: Bumped on every spawn; a death or a reply stamped with an
        #: older generation is stale, which makes the death path
        #: idempotent against racing EOF + heartbeat timeout.
        self.generation = 0
        #: request_id -> (generation, item): requests written to this
        #: shard and not yet answered.
        self.inflight: dict[int, tuple[int, PendingRequest]] = {}
        #: Real-time stamp of the last frame seen from the process
        #: (heartbeats included).  Liveness is a property of the real
        #: process, so this stays on time.monotonic even when the
        #: serving clock is virtual.
        self.last_beat = 0.0
        self.routed = 0
        self.deaths = 0
        self.restarts = 0
        self.startup_seconds = 0.0
        #: rpc_id -> [threading.Event, reply-frame-or-None]; one waiter
        #: map for every request/reply RPC on the control channel
        #: (stats polls, session collection, adopt/evict).
        self.rpc_waiters: dict[int, list[Any]] = {}
        #: Last stats_reply payload (rendered for dead shards).
        self.last_stats: dict[str, Any] | None = None

    @property
    def pending_count(self) -> int:
        """Requests sent here and not yet answered (replica routing
        picks the least-loaded by this number)."""
        return len(self.inflight)


class ShardBackend(ExecutionBackend):
    """Request forwarding over worker processes, plus live fleet
    reshaping.

    ``model_wire`` is the value-only model recipe every worker applies
    (:meth:`repro.shard.coordinator.ShardModelSpec.to_wire`), which is
    what makes any shard's answer to a content-seeded request
    byte-identical to any other's.
    """

    def __init__(self, model_wire: dict[str, Any]) -> None:
        self.model_wire = model_wire

    def bind(self, lifecycle: RequestLifecycle) -> None:
        super().bind(lifecycle)
        config = lifecycle.config
        self.config = config
        self.ring = HashRing(range(config.shards))
        #: Work admitted past the router but not yet resolved, fleet
        #: wide.  The cap is fixed for the server's life and equals each
        #: worker's local queue depth, so a shard never sheds what was
        #: admitted; past it, the admission queue fills and sheds.
        self._outstanding_limit = config.shards * config.queue_depth
        self._outstanding = 0
        self._outstanding_cond = threading.Condition()
        self.handles = [_ShardHandle(index)
                        for index in range(config.shards)]
        self._hot = set(config.shard_hot_graphs)
        #: Cleared while a migration holds the fleet quiesced; the
        #: router parks (admission keeps queueing, bounded) until the
        #: ring swap completes.
        self._route_gate = threading.Event()
        self._route_gate.set()
        self._migration_lock = threading.Lock()
        self._router_thread: threading.Thread | None = None
        #: Router, heartbeat monitor, restarts (readers are per handle).
        self._threads: list[threading.Thread] = []
        self._stopping = False
        #: Orders a death's restart decision against ``shutdown`` setting
        #: ``_stopping``: ``finalize`` joins every restart not prevented.
        self._restart_lock = threading.Lock()
        self._rpc_ids = itertools.count(1)

    def _active_handles(self) -> list[_ShardHandle]:
        return [handle for handle in self.handles if not handle.retired]

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def check(self, request: ServeRequest) -> None:
        if request.op == "execute":
            raise ServeError(
                "op 'execute' is not shardable (PipelineResult holds "
                "live pipeline objects); use the in-process server for "
                "the propose/confirm/execute loop")

    def prepare(self, pending: PendingRequest) -> None:
        pending._tried = set()

    def boot(self) -> None:
        self._stopping = False
        errors: list[tuple[int, BaseException]] = []

        def spawn(handle: _ShardHandle) -> None:
            try:
                self._spawn_shard(handle)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((handle.index, exc))

        # model builds dominate startup, so boot every shard in
        # parallel: the fleet comes up in one model-build time, not N;
        # each spawn ends by its own hello deadline
        for thread in [_start_thread(spawn, handle,
                                     name=f"shard-boot-{handle.index}")
                       for handle in self.handles]:
            thread.join()
        if errors:
            self._stopping = True
            self._stop_links(self.handles, time.monotonic())
            index, exc = errors[0]
            raise ServeError(
                f"shard {index} failed to start: {exc}") from exc

    def launch(self) -> None:
        self._router_thread = _start_thread(self._router_loop,
                                            name="shard-router")
        self._threads = [self._router_thread, _start_thread(
            self._heartbeat_monitor, name="shard-heartbeats")]

    def shutdown(self, drain: bool, deadline: float) -> None:
        # the router exits once the closed queue is empty *and* its last
        # pop finished routing, so joining it (rather than sampling the
        # queue length) closes the popped-but-not-yet-counted window
        if self._router_thread is not None:
            self._router_thread.join(
                max(0.1, deadline - time.monotonic()))
        if drain:
            self._quiesce(deadline)
        with self._restart_lock:
            self._stopping = True
        self._stop_links(self.handles, deadline)

    def finalize(self, deadline: float) -> None:
        # an in-flight restart is waited for too: its worker, once up,
        # finds the fleet stopping and is killed, not installed
        with self._outstanding_cond:
            self._outstanding_cond.notify_all()
        for thread in [*self._threads,
                       *(handle.reader for handle in self.handles)]:
            if thread is not None:
                thread.join(max(0.1, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def _spawn_shard(self, handle: _ShardHandle) -> None:
        """Start one worker and install its link — unless the fleet
        began stopping meanwhile (a restart racing ``stop()``)."""
        link = ShardLink()
        hello = link.spawn({"type": "init", "shard": handle.index,
                            "model": self.model_wire,
                            "serve": serve_config_to_wire(self.config)},
                           time.monotonic() + SPAWN_TIMEOUT_SECONDS)
        with handle.send_lock, handle.lock:
            stopping = self._stopping
            if not stopping:
                # the new worker holds no graph yet, and a fresh process
                # starts with its circuit closed: routable once alive
                handle.graphs.clear()
                self.lifecycle.breakers.reset_one(handle.name)
                handle.link, handle.pid = link, link.pid
                handle.startup_seconds = float(
                    hello.get("startup_seconds", 0.0))
                handle.alive = True
                handle.generation += 1
                handle.last_beat = time.monotonic()
                handle.reader = _start_thread(
                    self._reader_loop, handle, handle.generation, link,
                    name=f"shard-reader-{handle.index}"
                         f"-g{handle.generation}")
        if stopping:
            link.kill()
            raise ServeError(f"shard {handle.index} came up after the "
                             f"fleet began stopping")

    def kill_shard(self, index: int) -> None:
        """Hard-kill one worker (chaos hook; SIGKILL, no goodbye).

        Recovery is the normal death path: the reader sees EOF, the
        breaker trips, orphans fail over, and a replacement process
        comes up in the background.
        """
        handle = self.handles[index]
        with handle.lock:
            link = handle.link
        if link is not None:
            link.kill()

    def _restart_shard(self, handle: _ShardHandle) -> None:
        try:
            self._spawn_shard(handle)
        except ChatGraphError:
            self.lifecycle.metrics.incr("shard_restart_failed")
            return
        handle.restarts += 1
        self.lifecycle.metrics.incr("shard_restarts")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def routing_key(request: ServeRequest) -> str:
        """The consistent-hash key of one request.

        Sessions pin to their shard (dialog state lives there); named
        graphs pin to theirs (epoch-pinned views and their caches);
        inline-graph one-shots key on graph name + text so repeats of
        the same question reuse the same shard's caches.
        """
        if request.session_id is not None:
            return f"s:{request.session_id}"
        if request.graph_name is not None:
            return f"g:{request.graph_name}"
        graph_name = request.graph.name if request.graph is not None \
            else ""
        return f"q:{graph_name}|{request.text}"

    def _live(self, index: int, tried: set[int]) -> bool:
        if index in tried:
            return False
        handle = self.handles[index]
        return handle.alive and handle.name not in \
            self.lifecycle.breakers.open_names()

    def _pick_shard(self, item: PendingRequest) -> _ShardHandle | None:
        request = item.request
        key = self.routing_key(request)
        tried: set[int] = item._tried
        if (request.graph_name in self._hot
                and request.session_id is None):
            # hot named graph: stateless reads spread over the replica
            # set (the first HOT_GRAPH_REPLICAS shards of the
            # preference walk), least loaded first
            replicas = [i for i in self.ring.preferred(
                key, HOT_GRAPH_REPLICAS)
                if self._live(i, tried)]
            if replicas:
                return self.handles[min(
                    replicas,
                    key=lambda i: self.handles[i].pending_count)]
        for index in self.ring.preference(key):
            if self._live(index, tried):
                return self.handles[index]
        # last resort: every preferred shard is dead or already tried —
        # any live shard beats failing the request (all state needed to
        # serve is rebuilt from the shared store / request content)
        for index in self.ring.shards:
            if self._live(index, tried):
                return self.handles[index]
        return None

    def _route(self, item: PendingRequest, failover: bool = False) -> None:
        if not failover:
            # count the item outstanding *before* picking a shard: every
            # path below either registers it in flight or resolves it
            # (which decrements), so the counter can never leak
            with self._outstanding_cond:
                self._outstanding += 1
        handle = self._pick_shard(item)
        if handle is None:
            self._resolve_failure(
                item, ServeError("no live shard available"))
            return
        handle.routed += 1
        self._forward(handle, item)

    def _forward(self, handle: _ShardHandle, item: PendingRequest) -> None:
        """Write one request to its shard as its own ``request`` frame.

        Registered under the handle lock with a liveness re-check, so a
        concurrent death is guaranteed to see and fail it over.  The
        send lock spans the mirror update and the write; a frame that
        never reaches the worker leaves a mirror that is cleared before
        the next worker is installed.  A request whose frame cannot be
        encoded fails alone before the mirror or ``inflight`` sees it.
        A wedged worker's full pipe blocks this write (and the router)
        until the heartbeat monitor kills it.
        """
        try:
            with handle.send_lock:
                wire, payload = encode_request(
                    item.request, item.request_id, item.parent_span_id,
                    handle.graphs)
                item.dispatched_at = time.perf_counter()
                with handle.lock:
                    link = handle.link if handle.alive else None
                    if link is not None:
                        generation = handle.generation
                        handle.inflight[item.request_id] = (generation,
                                                            item)
                sent = link is not None and link.send(payload)
        except ShardProtocolError as exc:
            # only the encode raises it, before the mirror or
            # ``inflight`` saw the request
            self._resolve_failure(item, exc)
            return
        # failover forwards to another shard: never under this send lock
        if link is None:
            self._failover_item(item, handle.index)
        elif not sent:
            # whichever call runs the death path fails every request
            # registered under this generation over, this one included
            self._on_shard_down(handle, generation)
        elif wire["graph_ref"] is not None:
            self.lifecycle.metrics.incr(
                "shard_graph_refs" if wire["graph"] is None
                else "shard_graph_bodies")

    def _router_loop(self) -> None:
        lifecycle = self.lifecycle
        while True:
            if not self._route_gate.is_set():
                # a migration holds the fleet quiesced; admitted work
                # waits (bounded) on the admission queue
                self._route_gate.wait(0.1)
                continue
            with self._outstanding_cond:
                while (lifecycle.running
                       and self._outstanding >= self._outstanding_limit):
                    self._outstanding_cond.wait(0.1)
            item = lifecycle.queue.get(timeout=0.05)
            if item is None:
                if lifecycle.queue.closed and len(lifecycle.queue) == 0:
                    return
                if not lifecycle.running:
                    return
                continue
            self._route(item)

    # ------------------------------------------------------------------
    # gather
    # ------------------------------------------------------------------
    def _reader_loop(self, handle: _ShardHandle, generation: int,
                     link: ShardLink) -> None:
        try:
            while (frame := link.recv()) is not None:
                handle.last_beat = time.monotonic()
                kind = str(frame.get("type"))
                if kind == "reply":
                    self._gather(handle, generation, frame)
                elif kind.endswith("_reply"):
                    self._accept_rpc(handle, frame)
                # heartbeats only refresh last_beat
        finally:
            self._on_shard_down(handle, generation)

    def _gather(self, handle: _ShardHandle, generation: int,
                frame: dict[str, Any]) -> None:
        """Resolve the request one ``reply`` frame answers; a reply
        whose request already failed over or timed out is dropped.

        The backpressure EMA gets the round trip divided by the shard's
        in-flight count (this request included): overlapping requests
        share the shard's time, as the members of one local flush do.
        """
        wire = frame.get("response") or {}
        with handle.lock:
            entry = handle.inflight.get(wire.get("request_id"))
            if entry is None or entry[0] != generation:
                return
            sharing = len(handle.inflight)
            del handle.inflight[wire["request_id"]]
        item = entry[1]
        service = time.perf_counter() - item.dispatched_at
        self.lifecycle.record_service_time(service / sharing)
        self.lifecycle.reply(item, response_from_wire(wire), ReplyTiming(
            queued=item.dispatched_at - item.enqueued_at, service=service))
        self._settle_outstanding()

    def _resolve_failure(self, item: PendingRequest,
                         exc: Exception) -> None:
        """Fail one *routed* request: it counts and settles outstanding.

        Never-routed requests (the shutdown drain of the admission
        queue) are the lifecycle's to resolve — silently, as neither
        failures nor latency samples.
        """
        self.lifecycle.reply(item, ServeResponse(
            request_id=item.request_id, op=item.request.op, ok=False,
            error=str(exc), error_type=type(exc).__name__),
            ReplyTiming())
        self._settle_outstanding()

    def _settle_outstanding(self) -> None:
        with self._outstanding_cond:
            self._outstanding -= 1
            self._outstanding_cond.notify_all()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _failover_item(self, item: PendingRequest, from_shard: int) -> None:
        """Re-route one orphaned request after its shard died."""
        item._tried.add(from_shard)
        self.lifecycle.metrics.incr("shard_failovers")
        self._route(item, failover=True)

    def _on_shard_down(self, handle: _ShardHandle,
                       generation: int) -> None:
        stopping = self._stopping or handle.retired
        with handle.lock:
            if handle.generation != generation or not handle.alive:
                return
            handle.alive = False
            link, handle.link = handle.link, None
            # entries register only while alive, so all are this
            # generation's
            orphans = [item for __, item in handle.inflight.values()]
            handle.inflight.clear()
            # and every control-channel RPC blocked on it fails
            waiters = list(handle.rpc_waiters.values())
            handle.rpc_waiters.clear()
            if not stopping:
                handle.deaths += 1
        if link is not None:
            link.kill()
        if not stopping:
            # a worker EOF-ing during coordinated shutdown (or a
            # migration retirement) is a clean exit, not a death: no
            # counters, no breaker, no restart
            self.lifecycle.metrics.incr("shard_deaths")
            if self.lifecycle.breakers.trip(handle.name):
                # surface through the same counter the robustness
                # layer uses, so existing SLO gates see the trip
                self.lifecycle.metrics.incr("breaker_opened")
        for item in orphans:
            self._failover_item(item, handle.index)
        for waiter in waiters:
            waiter[0].set()
        with self._restart_lock:
            if not stopping and not self._stopping:
                self._threads.append(_start_thread(
                    self._restart_shard, handle,
                    name=f"shard-restart-{handle.index}"))

    def _heartbeat_monitor(self) -> None:
        while self.lifecycle.running:
            time.sleep(HEARTBEAT_SECONDS)
            self._sweep()

    def _sweep(self) -> None:
        """One monitor pass: fail every request unanswered past
        :data:`RESULT_TIMEOUT_SECONDS`, declare silent shards dead."""
        now = time.monotonic()
        cutoff = time.perf_counter() - RESULT_TIMEOUT_SECONDS
        for handle in list(self.handles):
            with handle.lock:
                alive = handle.alive
                stale = now - handle.last_beat
                generation = handle.generation
                expired = [handle.inflight.pop(request_id)[1]
                           for request_id, (__, item)
                           in list(handle.inflight.items())
                           if item.dispatched_at < cutoff]
            for item in expired:
                self._resolve_failure(item, ServeError(
                    f"shard {handle.index} did not answer request "
                    f"{item.request_id} within {RESULT_TIMEOUT_SECONDS}s"))
            if alive and stale > HEARTBEAT_TIMEOUT_SECONDS:
                # the process is wedged (a clean exit would have
                # EOF'd the reader first): the death path kills it
                self.lifecycle.metrics.incr("shard_heartbeat_timeouts")
                self._on_shard_down(handle, generation)

    # ------------------------------------------------------------------
    # control-channel RPCs
    # ------------------------------------------------------------------
    def _send_rpc(self, handle: _ShardHandle, kind: str,
                  payload: dict[str, Any]) -> tuple[int, list[Any]]:
        """Register a waiter and write one RPC frame (a dead shard is
        not written to).  The only place a control-channel request is
        written."""
        rpc_id = next(self._rpc_ids)
        waiter = [threading.Event(), None]
        with handle.lock:
            link = handle.link if handle.alive else None
            if link is not None:
                handle.rpc_waiters[rpc_id] = waiter
        if link is None or not link.send(
                {"type": kind, "rpc_id": rpc_id, **payload}):
            waiter[0].set()  # no reply will come: the wait ends at once
        return rpc_id, waiter

    def _rpc(self, kind: str, payloads: dict[int, dict[str, Any]],
             deadline: float) -> dict[int, dict[str, Any]]:
        """One ``kind`` round trip to each shard in ``payloads`` (index
        -> payload), all written before any is waited on: it costs the
        slowest reply, not the sum.  A dead or late shard has none."""
        sent = [(self.handles[index], self._send_rpc(
                    self.handles[index], kind, payload))
                for index, payload in payloads.items()]
        replies: dict[int, dict[str, Any]] = {}
        for handle, (rpc_id, waiter) in sent:
            waiter[0].wait(max(0.0, deadline - time.monotonic()))
            with handle.lock:
                handle.rpc_waiters.pop(rpc_id, None)
            if waiter[1] is not None:
                replies[handle.index] = waiter[1]
        return replies

    def _accept_rpc(self, handle: _ShardHandle,
                    frame: dict[str, Any]) -> None:
        with handle.lock:
            waiter = handle.rpc_waiters.get(frame.get("rpc_id"))
        if waiter is not None:
            waiter[1] = frame
            waiter[0].set()

    def _poll_shards(self, include_spans: bool = False
                     ) -> dict[int, dict[str, Any]]:
        """One stats round trip to every live shard (dead ones skip)."""
        payload = {"include_spans": bool(include_spans)}
        replies = self._rpc("stats", {
            handle.index: payload for handle in self.handles},
            time.monotonic() + STATS_TIMEOUT_SECONDS)
        for index, reply in replies.items():
            self.handles[index].last_stats = reply
        return replies

    # ------------------------------------------------------------------
    # migration (live ring changes)
    # ------------------------------------------------------------------
    def add_shard(self) -> dict[str, Any]:
        """Grow the fleet by one shard, live, migrating pinned state.

        Spawns the worker *before* pausing the router (a model build
        takes seconds; the routing pause lasts only the quiesce and the
        session moves), then runs the migration: sessions whose new ring
        preference is the joining shard are adopted by it, state and
        all.  Returns the migration report.
        """
        if not self.lifecycle.running:
            raise ServeError(
                "cannot reshape the fleet while the server is stopped")
        with self._migration_lock:
            handle = _ShardHandle(len(self.handles))
            self._spawn_shard(handle)
            self.handles.append(handle)
            new_ring = HashRing(
                h.index for h in self._active_handles())
            try:
                return self._migrate(new_ring, joining=handle,
                                     leaving=None)
            except BaseException:
                # the migration never swapped the ring: retire the
                # spawned worker so the fleet is exactly as before
                self._retire(handle,
                             time.monotonic() + 5.0)
                raise

    def remove_shard(self, index: int) -> dict[str, Any]:
        """Shrink the fleet by one shard, live, migrating pinned state.

        The leaving shard's sessions are adopted by their new ring-
        preferred survivors before it is retired (coordinated shutdown:
        no death counters, no breaker trip, no restart).  Returns the
        migration report.
        """
        if not self.lifecycle.running:
            raise ServeError(
                "cannot reshape the fleet while the server is stopped")
        with self._migration_lock:
            handle = self.handles[index]
            if handle.retired:
                raise ServeError(f"shard {index} is already retired")
            survivors = [h.index for h in self._active_handles()
                         if h.index != index]
            if not survivors:
                raise ServeError("cannot remove the last shard")
            new_ring = HashRing(survivors)
            return self._migrate(new_ring, joining=None, leaving=handle)

    def _migrate(self, new_ring: HashRing,
                 joining: _ShardHandle | None,
                 leaving: _ShardHandle | None) -> dict[str, Any]:
        old_ring = self.ring
        deadline = time.monotonic() + MIGRATION_TIMEOUT_SECONDS
        self._route_gate.clear()
        try:
            if not self._quiesce(deadline):
                raise ServeError(
                    f"migration could not quiesce: {self._outstanding} "
                    f"requests still outstanding at the deadline")
            placements, session_ids = self._collect_pins(old_ring,
                                                         deadline)
            members = set(new_ring.shards)
            live = [h.index for h in self.handles
                    if h.alive and not h.retired and h.index in members]
            plan = plan_migration(old_ring, new_ring, placements,
                                  live=live)
            moved = self._apply_plan(plan, session_ids, leaving,
                                     deadline)
            # the swap is atomic under the paused router: nothing is in
            # flight (quiesced) and nothing routes until the gate lifts
            self.ring = new_ring
            if leaving is not None:
                self._retire(leaving, deadline)
            metrics = self.lifecycle.metrics
            metrics.incr("shard_migrations")
            if moved:
                metrics.incr("sessions_migrated", moved)
            return {
                "joining": None if joining is None else joining.index,
                "leaving": None if leaving is None else leaving.index,
                "ring": list(new_ring.shards),
                "planned_moves": len(plan.moves),
                "sessions_migrated": moved,
                "unchanged": len(plan.unchanged),
                "stranded": len(plan.stranded),
            }
        finally:
            self._route_gate.set()

    def _quiesce(self, deadline: float) -> bool:
        """Wait for every routed request to resolve; False if some are
        still outstanding at ``deadline``."""
        with self._outstanding_cond:
            return self._outstanding_cond.wait_for(
                lambda: self._outstanding == 0,
                max(0.0, deadline - time.monotonic()))

    def _collect_pins(self, old_ring: HashRing, deadline: float
                      ) -> tuple[dict[str, int], dict[str, str]]:
        """Ask every live shard which sessions it holds.

        The coordinator never tracks session placement itself —
        failovers can strand a session off its ring home — so the
        fleet is the source of truth.  If a session somehow exists on
        two shards (failover residue), the copy on the old ring's
        preferred shard wins.  Returns the placements by routing key
        and each key's session id.
        """
        placements: dict[str, int] = {}
        session_ids: dict[str, str] = {}
        replies = self._rpc("sessions", {
            handle.index: {} for handle in self._active_handles()}, deadline)
        for index, reply in replies.items():
            for entry in reply.get("sessions") or []:
                session_id = entry.get("session_id")
                if session_id is None:
                    continue
                key = f"s:{session_id}"
                if key in placements:
                    walk = {shard: rank for rank, shard in
                            enumerate(old_ring.preference(key))}
                    if walk.get(index, len(walk)) >= \
                            walk.get(placements[key], len(walk)):
                        continue
                placements[key] = index
                session_ids[key] = session_id
        return placements, session_ids

    def _apply_plan(self, plan: Any, session_ids: dict[str, str],
                    leaving: _ShardHandle | None,
                    deadline: float) -> int:
        """Move each planned session: fetch its state (dialog and
        graph) from its old shard, adopt it at its new one, then evict
        the old copy.

        Adopt-before-evict means a crash mid-migration leaves a session
        present on *both* shards (harmless duplicate, resolved by the
        next ring-change's preference rule) rather than on neither.  A
        leaving shard skips eviction — retirement drops everything.
        """
        by_source: dict[int, list[Any]] = {}
        for move in plan.moves:
            by_source.setdefault(move.from_shard, []).append(move)
        states = self._rpc("sessions", {source: {"session_ids": [
            session_ids[move.key] for move in moves]}
            for source, moves in sorted(by_source.items())}, deadline)
        state = {entry["session_id"]: entry for reply in states.values()
                 for entry in reply.get("sessions") or []}
        # a source that died mid-migration sent no state: its sessions
        # went with it, and the next turn starts a fresh one
        by_target: dict[int, list[Any]] = {}
        for move in plan.moves:
            if session_ids[move.key] in state:
                by_target.setdefault(move.to_shard, []).append(move)
        replies = self._rpc("adopt", {target: {"sessions": [
            state[session_ids[move.key]] for move in moves]}
            for target, moves in sorted(by_target.items())}, deadline)
        # a target that died mid-migration has no reply: its sessions
        # stay where they are, and the death path's failover serves them
        moved = sum(int(reply.get("adopted", 0))
                    for reply in replies.values())
        evict: dict[int, list[str]] = {}
        for target in replies:
            for move in by_target[target]:
                if leaving is None or move.from_shard != leaving.index:
                    evict.setdefault(move.from_shard, []).append(
                        session_ids[move.key])
        self._rpc("evict", {source: {"session_ids": ids}
                            for source, ids in sorted(evict.items())},
                  deadline)
        return moved

    def _retire(self, handle: _ShardHandle, deadline: float) -> None:
        """Coordinated exit of one shard: like shutdown, scoped to it."""
        handle.retired = True
        self._stop_links([handle], deadline)

    def _stop_links(self, handles: list[_ShardHandle],
                    deadline: float) -> None:
        """Coordinated exit: all are told before any is waited on, and
        each reader takes its worker's last replies up to EOF before the
        link stops.  ``_stopping`` / ``retired`` is already set, so the
        readers take the EOFs for coordinated exits, not deaths."""
        links = []
        for handle in handles:
            with handle.lock:
                link, reader = handle.link, handle.reader
            if link is not None:
                link.send({"type": "shutdown"})
                links.append((link, reader))
        for link, reader in links:
            reader.join(max(0.0, deadline - time.monotonic()))
            link.stop(deadline)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def stats_sections(self) -> dict[str, Any]:
        replies = self._poll_shards()
        active = 0
        cache_totals: dict[str, dict[str, Any]] = {}
        per_shard: dict[str, dict[str, Any]] = {}
        epochs: dict[str, dict[str, int]] = {}
        for handle in self.handles:
            reply = replies.get(handle.index)
            stats = (reply or handle.last_stats or {}).get("stats", {})
            entry: dict[str, Any] = {
                "alive": handle.alive,
                "retired": handle.retired,
                "pid": handle.pid,
                "generation": handle.generation,
                "routed": handle.routed,
                "pending": handle.pending_count,
                "deaths": handle.deaths,
                "restarts": handle.restarts,
                "startup_seconds": round(handle.startup_seconds, 3),
                "breaker": self.lifecycle.breakers.breaker(
                    handle.name).snapshot(),
            }
            if stats:
                entry["counters"] = stats.get("counters", {})
                entry["sessions"] = stats.get("sessions", {})
                entry["caches"] = stats.get("caches", {})
                entry["store"] = stats.get("store", {})
                active += stats.get("sessions", {}).get("active", 0)
                for cache, values in stats.get("caches", {}).items():
                    totals = cache_totals.setdefault(
                        cache, {"hits": 0, "misses": 0, "evictions": 0,
                                "size": 0})
                    for field in totals:
                        totals[field] += values.get(field, 0)
                for name, graph_stats in stats.get("store", {}).items():
                    epochs.setdefault(name, {})[str(handle.index)] = \
                        graph_stats.get("epoch", 0)
            per_shard[str(handle.index)] = entry
        for totals in cache_totals.values():
            seen = totals["hits"] + totals["misses"]
            totals["hit_rate"] = round(
                totals["hits"] / seen, 4) if seen else 0.0
        return {
            "sessions": {"active": active},
            "caches": cache_totals,
            "pipeline_stages": [],
            #: Epoch pinning across processes: every shard reports each
            #: named graph's epoch; skew means a shard has not yet
            #: observed a compaction/ingest another shard has.
            "store": {
                "epochs": epochs,
                "epoch_skew": sorted(
                    name for name, by_shard in epochs.items()
                    if len(set(by_shard.values())) > 1),
            },
            "shards": {
                #: Live fleet size (the ring) — retired handles linger
                #: in ``per_shard`` for post-mortem but don't count.
                "count": len(self.ring.shards),
                "alive": sum(1 for h in self.handles if h.alive),
                "retired": sum(1 for h in self.handles if h.retired),
                "per_shard": per_shard,
            },
            #: Not a stats() section: the registry dumps this same poll
            #: returned, which ``metrics_snapshot()`` sums.
            "worker_dumps": [reply["metrics"] for reply in replies.values()
                             if reply.get("metrics")],
        }

    def collect_spans(self) -> list[dict[str, Any]]:
        """One merged structural trace across the process boundary.

        Shard-side request spans parent under the coordinator-side
        caller spans (the handoff travels in each request wire), so the
        merged view reads as one tree.
        """
        replies = self._poll_shards(include_spans=True)
        own: list[Any] = []
        tracer = self.lifecycle.tracer
        if tracer is not None:
            own = [span.to_dict(canonical=True)
                   for span in tracer.finished_spans()]
        shard_spans = [reply.get("spans") or []
                       for reply in replies.values()]
        return merge_traces(own, *shard_spans)


def _start_thread(target: Any, *args: Any, name: str) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, name=name,
                              daemon=True)
    thread.start()
    return thread
