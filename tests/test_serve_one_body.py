"""One serve body: a lone request is a micro-batch of one.

``LocalBackend._serve`` is the only way a popped request is served, so
what a server answers, counts and traces must not depend on how its
requests happened to be grouped.  The differential below drives one
fixed mixed workload (stateless ask/propose, three interleaved session
dialogs, an ``execute`` of an edited chain, one bad graph name) through
``microbatch_size`` 0, 1 and 8 with tracing off and on, and pins the
books to the numbers a scalar server produces.  At size 8 the first
turn of each dialog shares a pass with a stateless request; the later
turns pass through that flush and are served after it, in order.
"""

from __future__ import annotations

import pytest

from repro import ChatGraphServer, ServeConfig, ServeRequest
from repro.errors import ServeError
from repro.graphs import knowledge_graph, social_network
from repro.loadgen import bench_workload
from repro.obs import check_trace
from repro.shard.protocol import dumps_canonical, value_to_wire

SIZES = (0, 1, 8)

#: ``stats()["counters"]`` and the per-series ``stats()["latency"]``
#: counts for the workload below, as the scalar body counted them (the
#: books for the first dialog were pinned by the two-body server; the
#: other two dialogs add 6 asks, 6 chains and 9 steps, counted by a
#: server that served every session turn alone) — the same for every
#: size here.
#: ``microbatched`` and the two ``microbatch_*`` histograms are the
#: only series that may tell a shared pass from a lone one.
PARENT_COUNTERS = {
    "admitted": 13 + 6,
    "events_chain_finished": 8 + 6,
    "events_chain_started": 8 + 6,
    "events_step_finished": 21 + 9,
    "events_step_started": 21 + 9,
    "failed": 1,
    "op_ask": 8 + 6,
    "op_execute": 1,
    "op_propose": 4,
}
PARENT_LATENCY_COUNTS = {
    "execute": 8 + 6,
    "generate": 11 + 6,
    "graph_type": 11 + 6,
    "intent": 11 + 6,
    "queued": 13 + 6,
    "retrieval": 11 + 6,
    "sequentialize": 11 + 6,
    "service": 13 + 6,
    "total": 13 + 6,
}
BATCH_ONLY = ("microbatch_size", "microbatch_queue_delay")


def _stateless_workload() -> list[ServeRequest]:
    proposes = bench_workload(4, n_graphs=2)
    asks = [ServeRequest(op="ask", text=r.text, graph=r.graph,
                         client_id=r.client_id) for r in proposes]
    bad = ServeRequest(op="ask", text="count the nodes",
                       graph_name="no-such-graph")
    return proposes[:2] + asks[:2] + [bad] + proposes[2:] + asks[2:]


def _dialogs() -> list[ServeRequest]:
    """Three three-turn dialogs, each uploading its graph on its first
    turn, their turns interleaved."""
    dialogs = [
        ("dlg-1", knowledge_graph(24, 80, seed=3),
         ("how many nodes are there", "compute the graph density",
          "write a brief report for G")),
        ("dlg-2", social_network(30, 3, seed=5),
         ("detect the communities of this network",
          "how many nodes are there", "find the most influential nodes")),
        ("dlg-3", knowledge_graph(30, 90, seed=7),
         ("write a brief report for G", "count the edges",
          "compute the graph density")),
    ]
    return [ServeRequest(op="ask", text=texts[turn],
                         graph=graph if turn == 0 else None,
                         session_id=session_id, client_id=session_id)
            for turn in range(3)
            for session_id, graph, texts in dialogs]


def _reply_bytes(response) -> bytes:
    if not response.ok:
        return (f"{response.op}!{response.error_type}:"
                f"{response.error}").encode()
    return dumps_canonical(value_to_wire(response.op, response.value))


def _run(chatgraph, size: int, tracing: bool):
    """Serve the fixed workload; returns (replies, counters, latency
    counts, finished spans)."""
    config = ServeConfig(workers=1, enable_caches=False, queue_depth=64,
                         microbatch_size=size,
                         microbatch_deadline_seconds=0.3,
                         enable_tracing=tracing)
    with ChatGraphServer(chatgraph, config) as server:
        # one burst: a single worker with a 0.3 s window coalesces the
        # stateless members whenever ``size`` lets it
        pending = [server.submit(request)
                   for request in _stateless_workload() + _dialogs()]
        responses = [item.result(timeout=120.0) for item in pending]
        # the paper's confirm/edit loop: drop the last step of the
        # first proposal and execute what is left
        proposal = responses[0].value
        edited = proposal.chain.copy()
        edited.remove(len(edited) - 1)
        responses.append(server.request(ServeRequest(
            op="execute", pipeline_result=proposal, chain=edited)))
        stats = server.stats()
        spans = (server.tracer.finished_spans() if tracing else ())
    latency = {name: summary["count"]
               for name, summary in stats["latency"].items()}
    return ([_reply_bytes(r) for r in responses], stats["counters"],
            latency, spans)


@pytest.mark.parametrize("tracing", [False, True],
                         ids=["untraced", "traced"])
def test_replies_and_books_do_not_depend_on_flush_size(chatgraph, tracing):
    runs = {size: _run(chatgraph, size, tracing) for size in SIZES}
    replies, __, __, __ = runs[0]
    assert sum(b"!ServeError:" in reply for reply in replies) == 1
    for size in SIZES:
        got_replies, counters, latency, spans = runs[size]
        assert got_replies == replies, size
        shared = counters.pop("microbatched", 0)
        # the burst is coalesced iff the flush size allows it
        assert (shared > 0) == (size > 1), (size, shared)
        assert counters == PARENT_COUNTERS, size
        for name in BATCH_ONLY:
            assert (latency.pop(name, 0) > 0) == (size > 1), (size, name)
        assert latency == PARENT_LATENCY_COUNTS, size
        if not tracing:
            continue
        # served traces are uniform: one request span per admitted
        # request whatever the grouping, never an ``ask`` op span, and
        # a ``microbatch`` span only around a pass that was shared
        assert check_trace([s.to_dict() for s in spans]) == []
        requests = [s for s in spans if s.kind == "request"]
        assert sorted(s.name for s in requests) == sorted(
            f"request:{reply_op}" for reply_op in
            ["propose"] * 4 + ["ask"] * 14 + ["execute"]), size
        assert [s.kind for s in spans].count("op") == 0, size
        assert any(s.name == "microbatch" for s in spans) == (size > 1)
        # each dialog's first turn shares a pass; its later turns pass
        # through that flush
        turns_shared = sorted(
            s.attrs["client"] for s in requests
            if s.attrs["client"].startswith("dlg-")
            and "batch_size" in s.attrs)
        assert turns_shared == (["dlg-1", "dlg-2", "dlg-3"] if size > 1
                                else []), size


@pytest.mark.parametrize("size", SIZES)
def test_failed_member_keeps_its_request_span(chatgraph, size):
    """A member that fails before the pipeline (here: it names a graph
    and the server has no catalog) closes a ``request:<op>`` span with
    ``status=error`` — alone or inside a shared pass."""
    graph = knowledge_graph(24, 80, seed=3)
    workload = [
        ServeRequest(op="ask", text="count the nodes", graph=graph),
        ServeRequest(op="ask", text="count the nodes",
                     graph_name="no-such-graph"),
        ServeRequest(op="propose", text="compute the graph density",
                     graph=graph),
    ]
    config = ServeConfig(workers=1, enable_caches=False,
                         microbatch_size=size,
                         microbatch_deadline_seconds=0.3,
                         enable_tracing=True)
    with ChatGraphServer(chatgraph, config) as server:
        pending = [server.submit(request) for request in workload]
        responses = [item.result(timeout=120.0) for item in pending]
        spans = server.tracer.finished_spans()
    assert [r.ok for r in responses] == [True, False, True]
    assert responses[1].error_type == "ServeError"
    assert check_trace([s.to_dict() for s in spans]) == []
    requests = [s for s in spans if s.kind == "request"]
    assert sorted(s.name for s in requests) == [
        "request:ask", "request:ask", "request:propose"]
    (failed,) = [s for s in requests if s.status == "error"]
    assert failed.name == "request:ask"
    assert "no graph catalog" in failed.error
    assert all(s.attrs["ok"] is True for s in requests if s is not failed)


def test_session_bound_propose_is_refused(chatgraph):
    """A session turn is an ``ask`` with a ``session_id``; a ``propose``
    carrying one used to be answered statelessly (never seeing the
    session's graph) and is now refused at admission."""
    request = ServeRequest(op="propose", text="count the nodes",
                           session_id="s1")
    with pytest.raises(ServeError, match="session turn is an 'ask'"):
        request.validate()
    graph = knowledge_graph(24, 80, seed=3)
    with ChatGraphServer(chatgraph, ServeConfig(workers=1)) as server:
        assert server.ask("count the nodes", graph=graph,
                          session_id="s1").ok
        with pytest.raises(ServeError, match="session turn"):
            server.submit(request)
        assert server.stats()["counters"].get("op_propose", 0) == 0
