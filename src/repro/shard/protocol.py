"""The coordinator <-> shard-worker pipe protocol.

Frames are length-prefixed canonical JSON: a 4-byte big-endian length
followed by ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
in UTF-8.  Pickle-free by design — a shard worker is a separate OS
process fed over stdin/stdout, and the protocol must never let one
side execute bytes the other produced.  Canonical encoding also makes
frames byte-stable, so tests can diff them.

Frame types (``"type"`` field):

* coordinator -> worker: ``init`` (model spec + serve config),
  ``request`` (one request wire), the control-channel
  RPCs — ``stats`` (snapshot poll, optionally with spans), ``sessions``
  (placement inventory), ``adopt`` / ``evict`` (session ownership
  transfer on a ring change), ``warm`` (pre-warm caches for moved
  graph affinity) — each carrying an ``rpc_id``, and ``shutdown``;
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
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, BinaryIO

from ..errors import ServeError
from ..graphs.io import from_dict, to_dict
from ..serve.engine import ServeRequest, ServeResponse

__all__ = [
    "MAX_FRAME_BYTES",
    "ShardProtocolError",
    "ShardRecord",
    "ShardValue",
    "dumps_canonical",
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

_LENGTH = struct.Struct(">I")


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


def write_frame(stream: BinaryIO, obj: Any) -> None:
    """Write one length-prefixed frame and flush.

    Callers serialize concurrent writers themselves (the worker's
    heartbeat thread and reply path share one lock) — a frame must
    never interleave with another.
    """
    payload = dumps_canonical(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise ShardProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
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
# requests across the boundary
# ----------------------------------------------------------------------
def request_to_wire(request: ServeRequest, request_id: int,
                    parent_span: str | None = None) -> dict[str, Any]:
    """Serialize one request for its ``request`` frame.

    ``execute`` never crosses the boundary (a
    :class:`~repro.core.pipeline.PipelineResult` holds live pipeline
    objects); the coordinator rejects it at submit time.
    """
    if request.op == "execute":
        raise ShardProtocolError(
            "op 'execute' cannot cross the shard boundary")
    return {
        "request_id": request_id,
        "op": request.op,
        "text": request.text,
        "graph": (None if request.graph is None
                  else to_dict(request.graph)),
        "graph_name": request.graph_name,
        "session_id": request.session_id,
        "client_id": request.client_id,
        "attachments": dict(request.attachments),
        #: Span-context handoff: the submitting thread's span id
        #: becomes the parent of the shard-side request span, so merged
        #: traces keep one tree across the process boundary.
        "parent_span": parent_span,
    }


def request_from_wire(wire: dict[str, Any]) -> ServeRequest:
    graph = wire.get("graph")
    return ServeRequest(
        op=wire["op"],
        text=wire.get("text", ""),
        graph=None if graph is None else from_dict(graph),
        graph_name=wire.get("graph_name"),
        session_id=wire.get("session_id"),
        client_id=wire.get("client_id", "anonymous"),
        attachments=dict(wire.get("attachments") or {}),
    )


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
