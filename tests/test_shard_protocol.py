"""The length-prefixed canonical-JSON pipe protocol.

Framing (round trips, torn frames, the size cap, clean EOF) and the
request/response wire forms, including the ``value_to_wire``
idempotence the parity gate relies on: a gathered :class:`ShardValue`
re-serializes to the same bytes the worker emitted.
"""

from __future__ import annotations

import io

import pytest

from repro.graphs import fingerprint, social_network
from repro.serve import ServeRequest, ServeResponse
from repro.shard import (
    ShardProtocolError,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    value_to_wire,
    write_frame,
)
from repro.shard.protocol import MAX_FRAME_BYTES, dumps_canonical
from repro.shard.worker import serve_config_from_wire, serve_config_to_wire


def roundtrip(*frames):
    buf = io.BytesIO()
    for frame in frames:
        write_frame(buf, frame)
    buf.seek(0)
    out = [read_frame(buf) for _ in frames]
    assert read_frame(buf) is None  # clean EOF after the last frame
    return out


def test_frame_roundtrip_and_eof():
    frames = [{"type": "hello", "shard": 3},
              {"type": "request", "request": {"op": "ask", "text": "hi"}}]
    assert roundtrip(*frames) == frames


def test_canonical_bytes_are_stable():
    a = dumps_canonical({"b": 1, "a": [2, {"z": None, "y": "s"}]})
    b = dumps_canonical({"a": [2, {"y": "s", "z": None}], "b": 1})
    assert a == b
    assert b" " not in a  # no whitespace: byte-stable across runs


def test_torn_frames_raise():
    buf = io.BytesIO()
    write_frame(buf, {"type": "hello"})
    data = buf.getvalue()
    # torn header
    with pytest.raises(ShardProtocolError):
        read_frame(io.BytesIO(data[:2]))
    # torn body
    with pytest.raises(ShardProtocolError):
        read_frame(io.BytesIO(data[:-3]))


def test_frame_validation():
    # announced length over the cap
    bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
    with pytest.raises(ShardProtocolError):
        read_frame(io.BytesIO(bad))
    # valid JSON but not an object with a type
    payload = b"[1,2]"
    framed = len(payload).to_bytes(4, "big") + payload
    with pytest.raises(ShardProtocolError):
        read_frame(io.BytesIO(framed))
    # non-JSON-serializable frame refused at write time
    with pytest.raises(ShardProtocolError):
        write_frame(io.BytesIO(), {"type": "x", "bad": object()})


def test_request_wire_roundtrip():
    graph = social_network(12, 2, seed=5)
    request = ServeRequest(op="ask", text="how many nodes are there",
                           graph=graph, session_id="s-1",
                           client_id="c-9",
                           attachments={"k": "v"})
    wire = request_to_wire(request, 41, parent_span="span-7")
    assert wire["request_id"] == 41
    assert wire["parent_span"] == "span-7"
    back = request_from_wire(wire)
    assert back.op == "ask" and back.text == request.text
    assert back.session_id == "s-1" and back.client_id == "c-9"
    assert back.attachments == {"k": "v"}
    assert fingerprint(back.graph) == fingerprint(graph)


def test_execute_refused_on_the_wire():
    request = ServeRequest(op="execute", text="", session_id="s-1")
    with pytest.raises(ShardProtocolError):
        request_to_wire(request, 1)


def test_response_wire_roundtrip_ask():
    wire = {
        "request_id": 7, "op": "ask", "ok": True, "error": "",
        "error_type": "", "worker": "shard-1/worker-0", "seed": 123,
        "service_seconds": 0.25,
        "value": {"kind": "ask", "answer": "count_nodes: 12",
                  "chain": "count_nodes()", "intent": "count",
                  "graph_type": "social", "retrieved": ["count_nodes"],
                  "used_fallback": False, "degraded": True,
                  "n_steps": 2},
    }
    response = response_from_wire(wire)
    assert response.ok and response.worker == "shard-1/worker-0"
    assert response.value.answer == "count_nodes: 12"
    assert response.value.record.is_degraded is True
    assert response.value.record.n_steps == 2
    # idempotence: the gathered shim re-serializes to identical bytes
    assert dumps_canonical(value_to_wire("ask", response.value)) == \
        dumps_canonical(wire["value"])


def test_response_wire_roundtrip_propose_and_failure():
    wire = {"request_id": 9, "op": "propose", "ok": True,
            "error": "", "error_type": "", "worker": "shard-0/worker-1",
            "seed": 5, "service_seconds": 0.01,
            "value": {"kind": "propose", "chain": "pagerank()",
                      "intent": "rank", "graph_type": "kg",
                      "retrieved": ["pagerank"], "used_fallback": True}}
    response = response_from_wire(wire)
    assert response.value.used_fallback is True
    assert response.value.record is None
    assert dumps_canonical(value_to_wire("propose", response.value)) \
        == dumps_canonical(wire["value"])

    failed = response_from_wire(response_to_wire(ServeResponse(
        request_id=3, op="ask", ok=False, error="boom",
        error_type="ServeError")))
    assert not failed.ok and failed.value is None
    assert failed.error == "boom" and failed.error_type == "ServeError"


def _every_field_off_default(cls, values):
    """``cls(**values)`` after checking ``values`` names every field of
    ``cls``, each with a value other than its default."""
    import dataclasses

    fields = dataclasses.fields(cls)
    assert set(values) == {field.name for field in fields}
    for field in fields:
        assert values[field.name] != field.default, field.name
    return cls(**values)


def _assert_same_typed_values(back, sent):
    assert back == sent
    for name, value in sent.items():
        assert type(back[name]) is type(value), name


def test_serve_config_wire_roundtrip():
    """What the init frame carries rebuilds the coordinator's config:
    every field is set off its default, so one the frame drops or
    mistypes fails here."""
    import dataclasses

    from repro.config import ServeConfig

    config = _every_field_off_default(ServeConfig, dict(
        workers=3, queue_depth=8, session_ttl_seconds=45.5,
        enable_caches=False, enable_tracing=True,
        rate_limit_capacity=3, rate_limit_refill_per_second=0.5,
        step_timeout_seconds=1.5, step_max_retries=2,
        retry_backoff_seconds=0.004, breaker_failure_threshold=3,
        breaker_window=10, breaker_cooldown_seconds=20.0,
        microbatch_size=4, microbatch_deadline_seconds=0.002,
        store_root="/tmp/store", shards=3,
        shard_hot_graphs=("demo-social-m", "demo-kg-m"), seed=11))
    (init,) = roundtrip({"type": "init",
                         "serve": serve_config_to_wire(config)})
    _assert_same_typed_values(
        dataclasses.asdict(serve_config_from_wire(init["serve"])),
        dataclasses.asdict(config))


def test_model_spec_wire_reaches_the_model_build(monkeypatch):
    """Every ``ShardModelSpec`` field, off its default, arrives at
    ``ChatGraph.pretrained`` through the init frame, with its type."""
    import dataclasses

    from repro.core.chatgraph import ChatGraph
    from repro.shard import ShardModelSpec
    from repro.shard.worker import build_shard_chatgraph

    spec = _every_field_off_default(ShardModelSpec,
                                    dict(corpus_size=120, seed=3))
    seen = {}
    monkeypatch.setattr(ChatGraph, "pretrained",
                        classmethod(lambda cls, **kwargs: seen.update(kwargs)))
    (init,) = roundtrip({"type": "init", "model": spec.to_wire()})
    build_shard_chatgraph(init["model"])
    _assert_same_typed_values(seen, dataclasses.asdict(spec))


def _stub_worker(submit):
    """A ``ShardWorker`` over a stub server: no process, no model."""
    import threading
    from types import SimpleNamespace

    from repro.shard.protocol import GraphTable
    from repro.shard.worker import ShardWorker

    worker = ShardWorker.__new__(ShardWorker)
    worker.shard, worker.name = 0, "shard-0"
    worker.graphs = GraphTable()
    worker.server = SimpleNamespace(submit=submit)
    worker._stdout = io.BytesIO()
    worker._write_lock = threading.Lock()
    worker._stop = threading.Event()
    return worker


def _written(worker):
    """Every frame the worker has written so far, in order."""
    stream = io.BytesIO(worker._stdout.getvalue())
    frames = []
    while (frame := read_frame(stream)) is not None:
        frames.append(frame)
    return frames


def _request_frame(text, request_id):
    return {"type": "request", "request": request_to_wire(
        ServeRequest(op="propose", text=text), request_id)}


def test_reply_labels_every_request_with_the_shard_once():
    """One reply per request over a stub server, no process, in the
    three outcomes: refused at submit, raising at result, served.  Both
    failed replies name the shard alone (``shard-0``, never
    ``shard-0/shard-0``); the served one is ``shard-0/<lane>``; ids are
    the coordinator's."""
    from types import SimpleNamespace

    from repro.errors import ServeError

    def hung():
        raise TimeoutError("no result")

    def served():
        return ServeResponse(request_id=1, op="propose", ok=True,
                             worker="worker-0")

    results = {"hang": hung, "serve": served}

    def submit(request, parent_span_id=None):
        if request.text == "refuse":
            raise ServeError("refused")
        done = SimpleNamespace(
            result=lambda timeout: results[request.text]())
        done.add_done_callback = lambda fn: fn(done)
        return done

    worker = _stub_worker(submit)
    for request_id, text in ((41, "refuse"), (42, "hang"), (43, "serve")):
        worker._handle_request(_request_frame(text, request_id))
    frames = _written(worker)
    assert [frame["type"] for frame in frames] == ["reply"] * 3
    refused, hung_reply, ok = [frame["response"] for frame in frames]
    assert [r["request_id"] for r in (refused, hung_reply, ok)] \
        == [41, 42, 43]
    assert (refused["ok"], refused["error_type"], refused["worker"]) \
        == (False, "ServeError", "shard-0")
    assert (hung_reply["ok"], hung_reply["error_type"],
            hung_reply["worker"]) == (False, "TimeoutError", "shard-0")
    assert (ok["ok"], ok["worker"]) == (True, "shard-0/worker-0")


def test_a_fast_reply_leaves_before_a_slow_one_that_arrived_first():
    """The reader only submits; each request's reply is written the
    moment it resolves, so a slow request never holds a fast one's
    reply back."""
    from repro.serve.engine import PendingRequest

    pending = {}

    def submit(request, parent_span_id=None):
        pending[request.text] = PendingRequest(request, len(pending) + 1,
                                               0.0)
        return pending[request.text]

    worker = _stub_worker(submit)
    worker._handle_request(_request_frame("slow", 7))
    worker._handle_request(_request_frame("fast", 8))
    assert _written(worker) == []  # submitted, never awaited
    pending["fast"]._resolve(ServeResponse(
        request_id=2, op="propose", ok=True, worker="worker-0"))
    (fast,) = _written(worker)
    assert fast["response"]["request_id"] == 8
    assert not pending["slow"].done()
    pending["slow"]._resolve(ServeResponse(
        request_id=1, op="propose", ok=True, worker="worker-0"))
    assert [frame["response"]["request_id"]
            for frame in _written(worker)] == [8, 7]
