"""The coordinator <-> shard-worker pipe protocol.

Frames are length-prefixed canonical JSON: a 4-byte big-endian length
followed by ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
in UTF-8.  Pickle-free by design — a shard worker is a separate OS
process fed over stdin/stdout, and the protocol must never let one
side execute bytes the other produced.  Canonical encoding also makes
frames byte-stable, so tests can diff them.

Frame types (``"type"`` field):

* coordinator -> worker: ``init`` (model spec + serve config),
  ``request`` (one request wire; see *graph refs* below), the
  control-channel RPCs — ``stats`` (snapshot poll, optionally with
  spans), ``sessions`` (placement inventory), ``adopt`` / ``evict``
  (session ownership transfer on a ring change), ``warm`` (pre-warm
  caches for moved graph affinity) — each carrying an ``rpc_id``, and
  ``shutdown``;
* worker -> coordinator: ``hello`` (model built, serving),
  ``reply`` (one response wire, under its request's id, written the
  moment the request resolves — in any order), one
  ``<kind>_reply`` per RPC echoing its ``rpc_id``, ``heartbeat``.

Requests and responses cross the boundary as plain dicts built by
:func:`request_to_wire` / :func:`value_to_wire`; the coordinator
rehydrates responses into :class:`~repro.serve.engine.ServeResponse`
objects whose ``value`` is a :class:`ShardValue` — a light shim
exposing the same ``answer`` / ``chain`` / ``record.is_degraded``
surface the soak runner and callers read, without shipping live
pipeline objects between processes.

Graph refs: an inline graph crosses the pipe once per shard.
:func:`graph_ref` names a graph object's current content with an int
(a write moves :attr:`~repro.graphs.Graph.content_stamp`, so the edited
graph gets a new ref; equal content in two objects gets two).  A
``request`` wire always carries ``graph_ref`` and carries the ``graph``
body only when the receiving shard does not hold that ref.  The worker
files each body it receives in its :class:`GraphTable`, and the
coordinator keeps a mirror table per shard that sees the same refs in
the same order: both apply one rule, so the mirror knows exactly which
refs the worker holds.  The coordinator encodes each ``request`` frame
(:func:`encode_request`) before its mirror files anything, so a request
that cannot cross the pipe fails alone and leaves the mirror as it was.
"""

from __future__ import annotations

import itertools
import json
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, BinaryIO

from ..errors import ServeError
from ..graphs.graph import Graph
from ..graphs.io import from_document, to_document
from ..serve.engine import ServeRequest, ServeResponse

__all__ = [
    "GRAPH_TABLE_BUDGET",
    "GraphTable",
    "MAX_FRAME_BYTES",
    "ShardProtocolError",
    "ShardRecord",
    "ShardValue",
    "dumps_canonical",
    "encode_frame",
    "encode_request",
    "graph_ref",
    "read_frame",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "value_to_wire",
    "write_frame",
]

#: Hard cap on one frame (a request carrying a large inline graph stays
#: far below this; anything bigger is a protocol bug, not data).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Nodes + edges one shard's :class:`GraphTable` holds in all, read at
#: use on both sides of the pipe.  A graph larger than this is shipped
#: with every request and never held.  A held graph costs a worker
#: ~310 B of heap per node + edge with its memos, so a full table is
#: ~10 MB, paid even by traffic that never asks a graph twice.
GRAPH_TABLE_BUDGET = 1 << 15

_LENGTH = struct.Struct(">I")
_GRAPH_REFS = itertools.count(1)


class ShardProtocolError(ServeError):
    """A malformed, oversized, or truncated protocol frame."""


def dumps_canonical(obj: Any) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace, ASCII)."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True).encode("ascii")
    except (TypeError, ValueError) as exc:
        raise ShardProtocolError(
            f"frame is not JSON-serializable: {exc}") from exc


def encode_frame(obj: Any) -> bytes:
    """One frame's payload: its canonical JSON, within the frame cap."""
    payload = dumps_canonical(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise ShardProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    return payload


def write_frame(stream: BinaryIO, obj: Any) -> None:
    """Write one length-prefixed frame and flush; ``obj`` is the frame
    or its payload from :func:`encode_frame`.

    Callers serialize concurrent writers themselves (the worker's
    heartbeat thread and reply path share one lock) — a frame must
    never interleave with another.
    """
    payload = obj if isinstance(obj, bytes) else encode_frame(obj)
    stream.write(_LENGTH.pack(len(payload)) + payload)
    stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    """``n`` bytes, or None on clean EOF; raises on a torn frame."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return None
            raise ShardProtocolError(
                f"stream ended {remaining} bytes short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """The next frame as a dict, or ``None`` on clean EOF."""
    header = _read_exact(stream, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ShardProtocolError(
            f"frame header announces {length} bytes (cap "
            f"{MAX_FRAME_BYTES}); stream is corrupt")
    payload = _read_exact(stream, length)
    if payload is None:
        raise ShardProtocolError("stream ended before the frame body")
    try:
        frame = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ShardProtocolError(f"bad frame JSON: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise ShardProtocolError(
            f"frame must be an object with a 'type', got {frame!r}")
    return frame


# ----------------------------------------------------------------------
# graph refs
# ----------------------------------------------------------------------
def graph_ref(graph: Graph) -> int:
    """The wire name of this graph object's current content: a content
    memo, so it lasts until the next write and costs a lookup, not a
    walk.  Two threads that miss together may draw two refs; both name
    the same content, so either is valid."""
    return graph.content_memo("shard_ref", lambda: next(_GRAPH_REFS))


def _body_size(body: dict[str, Any]) -> int:
    """What a shipped body weighs in a :class:`GraphTable`: its node and
    edge entries, read off the frame, so the mirror and the worker
    weigh the same thing whatever the worker rebuilds from it."""
    return len(body["nodes"]) + len(body["edges"])


class GraphTable:
    """Graph refs one shard holds, least recently used first, bounded
    by :data:`GRAPH_TABLE_BUDGET` nodes + edges in all.

    The worker's table maps a ref to its rebuilt, frozen graph (or to
    the error its body raised on rebuild); the coordinator's mirror
    maps it to ``True``.  Each side updates its table from one ordered
    stream of ``request`` wires (the worker's reader, the
    coordinator's per-shard send lock) through :meth:`get` and
    :meth:`hold`, weighing each body by its frame alone, so both evict
    the same refs.  No lock of its own.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[int, tuple[int, Any]] = OrderedDict()
        #: Nodes + edges of everything held.
        self.weight = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ref: int) -> bool:
        """Whether ``ref`` is held; unlike :meth:`get`, leaves the
        order alone."""
        return ref in self._entries

    def refs(self) -> list[int]:
        """The refs held, least recently used first."""
        return list(self._entries)

    def get(self, ref: int) -> Any:
        """What ``ref`` names (now the most recently used), or None."""
        entry = self._entries.get(ref)
        if entry is None:
            return None
        self._entries.move_to_end(ref)
        return entry[1]

    def hold(self, ref: int, size: int, value: Any) -> None:
        """File ``value`` (``size`` nodes + edges) under ``ref``,
        evicting the least recently used until it fits; a value larger
        than the whole budget is not held."""
        budget = GRAPH_TABLE_BUDGET
        if size > budget:
            return
        old = self._entries.pop(ref, None)
        if old is not None:
            self.weight -= old[0]
        while self.weight + size > budget:
            self.weight -= self._entries.popitem(last=False)[1][0]
        self._entries[ref] = (size, value)
        self.weight += size

    def clear(self) -> None:
        self._entries.clear()
        self.weight = 0


# ----------------------------------------------------------------------
# requests across the boundary
# ----------------------------------------------------------------------
def request_to_wire(request: ServeRequest, request_id: int,
                    parent_span: str | None = None,
                    graphs: GraphTable | None = None) -> dict[str, Any]:
    """Serialize one request for its ``request`` frame.

    An inline graph travels as its :func:`graph_ref`, plus its body
    unless ``graphs`` (the coordinator's mirror of the receiving
    shard's table) holds the ref; a shipped ref is filed there.
    Without ``graphs`` the body always travels.

    ``execute`` never crosses the boundary (a
    :class:`~repro.core.pipeline.PipelineResult` holds live pipeline
    objects); the coordinator rejects it at submit time.
    """
    wire = _request_wire(request, request_id, parent_span, graphs)
    _file_graph(wire, graphs)
    return wire


def encode_request(request: ServeRequest, request_id: int,
                   parent_span: str | None,
                   graphs: GraphTable) -> tuple[dict[str, Any], bytes]:
    """:func:`request_to_wire` and its whole ``request`` frame, encoded
    (:func:`encode_frame`) before the mirror ``graphs`` files the ref.
    A request that cannot be encoded (say, a set-valued attribute) or
    exceeds the frame cap raises :class:`ShardProtocolError` with the
    mirror untouched, so it fails alone and the link stays up."""
    wire = _request_wire(request, request_id, parent_span, graphs)
    payload = encode_frame({"type": "request", "request": wire})
    _file_graph(wire, graphs)
    return wire, payload


def _request_wire(request: ServeRequest, request_id: int,
                  parent_span: str | None,
                  graphs: GraphTable | None) -> dict[str, Any]:
    """The wire, shipping the body unless ``graphs`` holds the ref;
    ``graphs`` is only read."""
    if request.op == "execute":
        raise ShardProtocolError(
            "op 'execute' cannot cross the shard boundary")
    graph = request.graph
    ref = body = None
    if graph is not None:
        ref = graph_ref(graph)
        if graphs is None or ref not in graphs:
            body = to_document(graph)
    return {
        "request_id": request_id,
        "op": request.op,
        "text": request.text,
        "graph_ref": ref,
        "graph": body,
        "graph_name": request.graph_name,
        "session_id": request.session_id,
        "client_id": request.client_id,
        "attachments": dict(request.attachments),
        #: Span-context handoff: the submitting thread's span id
        #: becomes the parent of the shard-side request span, so merged
        #: traces keep one tree across the process boundary.
        "parent_span": parent_span,
    }


def _file_graph(wire: dict[str, Any], graphs: GraphTable | None) -> None:
    """Update the mirror as the worker will on reading ``wire``: a ref
    alone is touched, a shipped body is held."""
    ref = wire["graph_ref"]
    if graphs is None or ref is None:
        return
    if wire["graph"] is None:
        graphs.get(ref)
    else:
        graphs.hold(ref, _body_size(wire["graph"]), True)


def request_from_wire(wire: dict[str, Any],
                      graphs: GraphTable | None = None) -> ServeRequest:
    """Rebuild one request.  ``graphs`` is the receiving shard's table:
    a shipped body is rebuilt, frozen and filed under its ref, and a
    ref alone is looked up.  A ref that is not an int, or a ref alone
    that ``graphs`` does not hold (or with no table), raises
    :class:`ShardProtocolError`.  A body that cannot be rebuilt is
    filed too, as its error: the mirror filed its ref, and a later ref
    alone raises the same error."""
    return ServeRequest(
        op=wire["op"],
        text=wire.get("text", ""),
        graph=_graph_from_wire(wire.get("graph_ref"), wire.get("graph"),
                               graphs),
        graph_name=wire.get("graph_name"),
        session_id=wire.get("session_id"),
        client_id=wire.get("client_id", "anonymous"),
        attachments=dict(wire.get("attachments") or {}),
    )


def _graph_from_wire(ref: Any, body: dict[str, Any] | None,
                     graphs: GraphTable | None) -> Graph | None:
    if ref is not None and type(ref) is not int:
        raise ShardProtocolError(f"graph_ref must be an int, got {ref!r}")
    if body is None:
        graph = None if ref is None or graphs is None else graphs.get(ref)
        if ref is not None and graph is None:
            raise ShardProtocolError(
                f"graph_ref {ref} came without its body and is not held "
                f"here")
        if isinstance(graph, Exception):
            raise graph.with_traceback(None)
        return graph
    if graphs is None or ref is None:
        return from_document(body)
    try:
        size = _body_size(body)
    except (KeyError, TypeError) as exc:
        # the coordinator never sends one: its mirror filed nothing
        raise ShardProtocolError(f"malformed graph body: {exc!r}") from exc
    try:
        # frozen: requests sharing a held graph cannot change what the
        # next one reads
        graph = from_document(body).freeze()
    except Exception as exc:  # noqa: BLE001 - filed whatever failed
        # the mirror filed this ref: the table must hold it too
        graphs.hold(ref, size, exc)
        raise
    graphs.hold(ref, size, graph)
    return graph


# ----------------------------------------------------------------------
# responses across the boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardRecord:
    """Execution-outcome surface of a gathered ``ask`` response."""

    is_degraded: bool = False
    n_steps: int = 0


@dataclass(frozen=True)
class ShardValue:
    """Gathered response payload (the wire twin of a pipeline value).

    Exposes the attribute surface callers and the soak runner read
    from in-process responses: ``answer``, ``chain`` (rendered),
    ``retrieved``, ``record.is_degraded``.
    """

    kind: str
    answer: str = ""
    chain: str = ""
    intent: str = ""
    graph_type: str | None = None
    retrieved: tuple[str, ...] = ()
    used_fallback: bool = False
    record: ShardRecord | None = None


def value_to_wire(op: str, value: Any) -> dict[str, Any] | None:
    """Canonical JSON form of a served value.

    Shared by the shard worker (serializing its local results) and the
    parity gate (serializing single-process results): both sides
    flatten through this one function, so "byte-identical responses"
    compares the rendered chain, retrieved APIs, answer text, and
    degradation flags of the *actual* pipeline outputs.
    """
    if value is None:
        return None
    if isinstance(value, ShardValue):
        # already a gathered wire twin: re-emit it unchanged, so a
        # sharded response round-trips to the same bytes a local value
        # serializes to (what the parity gate diffs)
        wire: dict[str, Any] = {
            "kind": value.kind,
            "chain": value.chain,
            "intent": value.intent,
            "graph_type": value.graph_type,
            "retrieved": list(value.retrieved),
            "used_fallback": bool(value.used_fallback),
        }
        if value.kind != "propose":
            record = value.record or ShardRecord()
            wire["answer"] = value.answer
            wire["degraded"] = bool(record.is_degraded)
            wire["n_steps"] = int(record.n_steps)
        return wire
    if op == "propose":
        return {
            "kind": "propose",
            "chain": value.chain.render(),
            "intent": value.intent,
            "graph_type": value.graph_type,
            "retrieved": list(value.retrieved),
            "used_fallback": bool(value.used_fallback),
        }
    record = value.record
    return {
        "kind": "ask",
        "answer": value.answer,
        "chain": value.pipeline.chain.render(),
        "intent": value.pipeline.intent,
        "graph_type": value.pipeline.graph_type,
        "retrieved": list(value.pipeline.retrieved),
        "used_fallback": bool(value.pipeline.used_fallback),
        "degraded": bool(record.is_degraded) if record else False,
        "n_steps": len(record.steps) if record else 0,
    }


def response_to_wire(response: ServeResponse) -> dict[str, Any]:
    return {
        "request_id": response.request_id,
        "op": response.op,
        "ok": response.ok,
        "error": response.error,
        "error_type": response.error_type,
        "worker": response.worker,
        "seed": response.seed,
        "service_seconds": response.service_seconds,
        "value": value_to_wire(response.op, response.value),
    }


def response_from_wire(wire: dict[str, Any]) -> ServeResponse:
    value = wire.get("value")
    shim: ShardValue | None = None
    if value is not None:
        record = None
        if value["kind"] == "ask":
            record = ShardRecord(
                is_degraded=bool(value.get("degraded", False)),
                n_steps=int(value.get("n_steps", 0)))
        shim = ShardValue(
            kind=value["kind"],
            answer=value.get("answer", ""),
            chain=value.get("chain", ""),
            intent=value.get("intent", ""),
            graph_type=value.get("graph_type"),
            retrieved=tuple(value.get("retrieved") or ()),
            used_fallback=bool(value.get("used_fallback", False)),
            record=record)
    return ServeResponse(
        request_id=wire["request_id"],
        op=wire["op"],
        ok=bool(wire["ok"]),
        value=shim,
        error=wire.get("error", ""),
        error_type=wire.get("error_type", ""),
        worker=wire.get("worker", ""),
        seed=int(wire.get("seed", 0)),
        service_seconds=float(wire.get("service_seconds", 0.0)),
    )
