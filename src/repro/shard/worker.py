"""The shard worker process: ``python -m repro.shard.worker``.

One worker is one OS process hosting a private
:class:`~repro.serve.engine.ChatGraphServer` — its own finetuned model
(rebuilt deterministically from the init spec, so every shard computes
byte-identical results for the same content-seeded request), its own
session store, two pipeline caches (filled only by the requests it
serves: nothing pre-fills them), per-API breakers, and catalog handle
over the shared ``store_root``.  The process boundary is the point:
each shard owns a whole CPU core's worth of decode/ANN work instead of
sharing one GIL.

Protocol (see :mod:`repro.shard.protocol`): stdin carries ``init`` /
``request`` / ``stats`` / ``shutdown`` frames plus the migration RPCs
(``sessions`` / ``adopt`` / ``evict``); stdout carries
``hello`` / ``reply`` / ``stats_reply`` / ``heartbeat`` and the
matching ``*_reply`` frames.  The reader submits each ``request``
inline and hooks its completion, so its ``reply`` leaves the moment it
resolves; execution batching is the local server's ``microbatch_*``
alone.  Before it submits, the reader resolves the request's inline
graph through the worker's :class:`~repro.shard.protocol.GraphTable`,
in frame order: a shipped body is filed under its ref, a ref alone is
looked up, so a graph asked about again is the same object, memos and
all.  stdout belongs to the protocol exclusively — ``main`` repoints
``sys.stdout`` at stderr before any library code runs, so a stray
``print`` can never corrupt a frame.  A clean EOF on stdin
(coordinator gone) is the shutdown signal; the worker drains and exits.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time
from typing import Any, BinaryIO

from ..config import ServeConfig
from ..core.session import ChatSession
from ..errors import ChatGraphError
from ..serve.engine import ServeResponse
from .protocol import (
    GraphTable,
    ShardProtocolError,
    read_frame,
    request_from_wire,
    response_to_wire,
    write_frame,
)

__all__ = ["ShardWorker", "main", "serve_config_from_wire",
           "serve_config_to_wire"]

#: Interval between heartbeat frames, and the coordinator monitor's
#: polling period (``repro.runtime.shard.HEARTBEAT_TIMEOUT_SECONDS`` is
#: the silence that counts as death).
HEARTBEAT_SECONDS = 0.5


def serve_config_to_wire(config: ServeConfig) -> dict[str, Any]:
    """A JSON-able dict round-tripping through ``serve_config_from_wire``."""
    wire = dataclasses.asdict(config)
    wire["shard_hot_graphs"] = list(config.shard_hot_graphs)
    return wire


def serve_config_from_wire(wire: dict[str, Any]) -> ServeConfig:
    data = dict(wire)
    data["shard_hot_graphs"] = tuple(data.get("shard_hot_graphs") or ())
    return ServeConfig(**data)


def build_shard_chatgraph(model: dict[str, Any]) -> Any:
    """Deterministically rebuild the model a shard serves.

    The spec carries only values (corpus size and seed) — never
    objects — so any process that applies it produces the same
    finetuned weights, which is what makes sharded responses
    byte-identical to the single-process server's.
    """
    from ..core.chatgraph import ChatGraph

    return ChatGraph.pretrained(corpus_size=int(model["corpus_size"]),
                                seed=int(model["seed"]))


class ShardWorker:
    """Protocol loop around one local :class:`ChatGraphServer`."""

    def __init__(self, init: dict[str, Any], stdin: BinaryIO,
                 stdout: BinaryIO) -> None:
        self.shard = int(init["shard"])
        self.name = f"shard-{self.shard}"
        self._stdin = stdin
        self._stdout = stdout
        self._write_lock = threading.Lock()
        self._stop = threading.Event()
        #: Inline graphs by ref; only the reader thread touches it.
        self.graphs = GraphTable()
        config = serve_config_from_wire(init["serve"])
        #: Admission control lives in the coordinator: the shard must
        #: never second-guess it, so per-client limiting is off and the
        #: local queue is exactly as deep as the coordinator's cap on
        #: outstanding work — a shard never sheds what was admitted.
        self.config = dataclasses.replace(
            config,
            rate_limit_capacity=0,
            rate_limit_refill_per_second=0.0,
            queue_depth=config.shards * config.queue_depth)
        started = time.perf_counter()
        from ..serve.engine import ChatGraphServer

        chatgraph = build_shard_chatgraph(init["model"])
        self.server = ChatGraphServer(chatgraph, self.config)
        self.server.start()
        self.startup_seconds = time.perf_counter() - started
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name=f"{self.name}-heartbeat",
            daemon=True)

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------
    def _write(self, frame: dict[str, Any]) -> None:
        try:
            with self._write_lock:
                write_frame(self._stdout, frame)
        except (OSError, ValueError):
            # coordinator is gone; stop pumping and let the main loop
            # wind down on stdin EOF
            self._stop.set()

    def _reply(self, kind: str, frame: dict[str, Any],
               **payload: Any) -> None:
        """Answer one control-channel RPC under the caller's ``rpc_id``."""
        self._write({"type": f"{kind}_reply", "shard": self.shard,
                     "rpc_id": frame.get("rpc_id", 0), **payload})

    def _failed(self, wire: dict[str, Any],
                exc: Exception) -> dict[str, Any]:
        """The reply for one request that could not be served."""
        return response_to_wire(ServeResponse(
            request_id=wire.get("request_id", 0), op=wire.get("op", ""),
            ok=False, error=str(exc), error_type=type(exc).__name__,
            worker=self.name))

    def _heartbeat_loop(self) -> None:
        seq = 0
        while not self._stop.wait(HEARTBEAT_SECONDS):
            seq += 1
            self._write({"type": "heartbeat", "shard": self.shard,
                         "seq": seq})

    # ------------------------------------------------------------------
    # frame handlers
    # ------------------------------------------------------------------
    def _handle_request(self, frame: dict[str, Any]) -> None:
        """Submit one request inline; its reply leaves when it resolves.
        A graph ref this shard does not hold fails this request alone."""
        wire = frame.get("request") or {}
        try:
            pending = self.server.submit(
                request_from_wire(wire, self.graphs),
                parent_span_id=wire.get("parent_span"))
        except Exception as exc:  # noqa: BLE001 - fail this request only
            self._send_reply(self._failed(wire, exc))
            return
        pending.add_done_callback(
            lambda done: self._reply_for(wire, done))

    def _reply_for(self, wire: dict[str, Any], pending: Any) -> None:
        """The completion hook: runs on the resolving thread, so it must
        never raise into the local server's worker."""
        try:
            reply = response_to_wire(pending.result(timeout=0))
            # replies carry the coordinator's id; the lane name is
            # prefixed so merged stats attribute work to a shard (a
            # failed reply already names the shard alone)
            reply["request_id"] = wire.get("request_id", 0)
            reply["worker"] = f"{self.name}/{reply.get('worker', '')}"
            self._send_reply(reply)
        except Exception as exc:  # noqa: BLE001 - fail this request only
            self._send_reply(self._failed(wire, exc))

    def _send_reply(self, reply: dict[str, Any]) -> None:
        self._write({"type": "reply", "shard": self.shard,
                     "response": reply})

    def _handle_stats(self, frame: dict[str, Any]) -> None:
        payload: dict[str, Any] = {
            "stats": self.server.stats(),
            "metrics": self.server.metrics.dump(),
        }
        tracer = self.server.tracer
        if frame.get("include_spans") and tracer is not None:
            payload["spans"] = [span.to_dict(canonical=True)
                                for span in tracer.finished_spans()]
        self._reply("stats", frame, **payload)

    # ------------------------------------------------------------------
    # migration RPCs (see repro.runtime.shard's ring-change path)
    # ------------------------------------------------------------------
    def _handle_sessions(self, frame: dict[str, Any]) -> None:
        """Inventory of pinned sessions; the planner's placement input.
        With ``session_ids``, the state of just those sessions (see
        :meth:`repro.serve.sessions.SessionStore.pins`)."""
        self._reply("sessions", frame, sessions=self.server.sessions.pins(
            frame.get("session_ids")))

    def _handle_adopt(self, frame: dict[str, Any]) -> None:
        """Take ownership of sessions moving here on a ring change.

        Rebuilds each session from the document its old shard sent —
        dialog and uploaded graph — and re-binds one pinned to a
        catalog graph to that graph's current epoch view from the
        shared store; a bad document or graph reference fails only that
        one session's adoption, never the frame.
        """
        adopted = 0
        for wire in frame.get("sessions") or []:
            session_id = wire.get("session_id")
            if not session_id:
                continue
            try:
                session = ChatSession.from_document(
                    wire.get("document") or {}, self.server.chatgraph)
                entry = self.server.sessions.get_or_create(session_id)
                with entry.lock:
                    entry.session = session
                    name = wire.get("graph_name")
                    if name and self.server.catalog is not None:
                        view = self.server.catalog.view(name)
                        session.upload_graph(view.graph)
                        entry.graph_ref = (view.name, view.epoch)
                adopted += 1
            except ChatGraphError:
                continue
        self._reply("adopt", frame, adopted=adopted)

    def _handle_evict(self, frame: dict[str, Any]) -> None:
        """Drop sessions whose ownership moved to another shard."""
        evicted = sum(
            1 for session_id in frame.get("session_ids") or []
            if self.server.sessions.drop(session_id))
        self._reply("evict", frame, evicted=evicted)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        self._write({"type": "hello", "shard": self.shard,
                     "pid": os.getpid(),
                     "startup_seconds": self.startup_seconds})
        self._heartbeat.start()
        # a request is only submitted here — never awaited — so the
        # loop keeps reading and a long request cannot starve
        # heartbeats or stats polls
        handlers = {"request": self._handle_request,
                    "stats": self._handle_stats,
                    "sessions": self._handle_sessions,
                    "adopt": self._handle_adopt,
                    "evict": self._handle_evict}
        try:
            while not self._stop.is_set():
                frame = read_frame(self._stdin)
                if frame is None or frame["type"] == "shutdown":
                    break
                kind = frame["type"]
                if kind in handlers:
                    handlers[kind](frame)
                elif kind != "heartbeat":
                    raise ShardProtocolError(
                        f"unexpected frame type {kind!r}")
        except (ShardProtocolError, OSError) as exc:
            print(f"{self.name}: protocol error: {exc}",
                  file=sys.stderr)
            return 1
        finally:
            self._stop.set()
            try:
                # the drain resolves every submitted request, and each
                # resolution writes its reply
                self.server.stop(drain=True, timeout=10.0)
            except ChatGraphError:
                pass
        return 0


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # the protocol owns the real stdout; anything library code prints
    # from here on lands on stderr instead of inside a frame
    sys.stdout = sys.stderr
    init = read_frame(stdin)
    if init is None:
        return 0
    if init.get("type") != "init":
        raise ShardProtocolError(
            f"expected an init frame, got {init.get('type')!r}")
    worker = ShardWorker(init, stdin, stdout)
    return worker.run()


if __name__ == "__main__":
    raise SystemExit(main())
